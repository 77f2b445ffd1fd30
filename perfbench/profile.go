package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profile runtime/pprof writes (gzipped
// protobuf, profile.proto) with a minimal hand-rolled decoder, so the
// benchmark needs nothing outside the standard library, and buckets the
// samples by layer.

// modulePrefix is the import-path prefix of the program under test.
const modulePrefix = "pbecc/internal/"

// profileCounts holds CPU-profile sample counts: per layer (the first
// path element under internal/, e.g. "cc" for internal/cc/bbr), plus the
// samples with no program frame ("runtime"), the samples inside garbage
// collection, and the total.
type profileCounts struct {
	Layers map[string]int64 `json:"layers"`
	GC     int64            `json:"gc"`
	Total  int64            `json:"total"`
}

func (p *profileCounts) add(q profileCounts) {
	if p.Layers == nil {
		p.Layers = map[string]int64{}
	}
	for k, v := range q.Layers {
		p.Layers[k] += v
	}
	p.GC += q.GC
	p.Total += q.Total
}

// share returns the fraction of samples charged to layer.
func (p *profileCounts) share(layer string) float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.Layers[layer]) / float64(p.Total)
}

// bucketProfile charges each sample to the layer of its innermost frame
// inside the program. Standard-library and runtime frames below it
// (math.Expm1, map lookups, allocation) count for the layer that called
// them; samples with no program frame at all (GC workers, the scheduler)
// count as "runtime". A sample counts toward GC when any frame is a
// collector function.
func bucketProfile(gz []byte) (profileCounts, error) {
	pc := profileCounts{Layers: map[string]int64{}}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return pc, fmt.Errorf("open profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return pc, fmt.Errorf("read profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return pc, fmt.Errorf("decode profile: %w", err)
	}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		layer, gc := "", false
		for _, locID := range s.locs {
			for _, fnID := range p.locations[locID] {
				name := p.strings[p.functions[fnID]]
				if layer == "" {
					layer = layerOf(name)
				}
				if isGC(name) {
					gc = true
				}
			}
		}
		if layer == "" {
			layer = "runtime"
		}
		pc.Layers[layer] += n
		pc.Total += n
		if gc {
			pc.GC += n
		}
	}
	return pc, nil
}

// layerOf maps a function name such as
// "pbecc/internal/cc/bbr.(*BBR).OnAck" to its layer ("cc"); it returns
// "" for functions outside the program.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	rest := fn[len(modulePrefix):]
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func isGC(fn string) bool {
	if strings.HasPrefix(fn, "runtime.gc") {
		return true
	}
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.scanobject", "runtime.markroot", "runtime.greyobject":
		return true
	}
	return false
}

type rawSample struct {
	locs   []uint64
	values []int64
}

type rawProfile struct {
	samples   []rawSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

// decodeProfile reads the fields of profile.proto this file needs:
// Profile.sample (2), .location (4), .function (5), .string_table (6).
func decodeProfile(b []byte) (*rawProfile, error) {
	p := &rawProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s rawSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, d)
				case 2:
					for _, x := range appendVarints(nil, w, v, d) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field given either unpacked
// (wire type 0) or packed (wire type 2).
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its integer value or its bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning the value and the number
// of bytes read (0 if b is truncated).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
