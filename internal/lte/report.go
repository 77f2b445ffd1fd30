// Package lte is a subframe-accurate simulator of the LTE/5G-NR MAC layer
// behaviours PBE-CC depends on: per-cell PRB scheduling with per-user
// queues, carrier aggregation with occupancy-driven secondary-cell
// activation (Figure 2 of the paper), HARQ retransmission eight
// subframes after an erroneous transport block with at most three retries,
// in-order delivery through a reordering buffer (Figure 3), and per-subframe
// emission of every user's control information, which is what the PBE-CC
// monitor decodes.
//
// Cell is the one scheduler kernel of both RATs: NewCell runs it with
// LTE's constants and package nr runs it with NR's (see RAT). Receiver,
// Router and LoadWindow are the device-side pieces the LTE UE, the NR UE
// and the EN-DC UE share.
//
// It replaces the commercial cells and USRP radios of the paper's testbed;
// see DESIGN.md for the substitution argument.
package lte

import (
	"pbecc/internal/pdcch"
	"pbecc/internal/phy"
)

// Alloc describes one user's downlink grant in one subframe - the
// information content of one DCI message.
type Alloc struct {
	RNTI     uint16
	FirstRBG int
	NumRBGs  int
	PRBs     int     // PRBs covered by the RBG span
	MCS      phy.MCS // wireless physical rate of the user
	TBBits   int     // allocated transport block size
	NDI      bool    // true = new data, false = HARQ retransmission

	// Control marks grants of control-plane-only users. It is ground
	// truth for evaluation; the PBE-CC monitor must not read it (the
	// paper's monitor cannot observe it either, and filters such users
	// by activity time and PRB thresholds instead).
	Control bool
}

// SubframeReport is everything a control-channel monitor learns about one
// cell in one subframe.
type SubframeReport struct {
	CellID   int
	Subframe int
	NPRB     int
	Allocs   []Alloc
}

// AllocatedPRBs sums the PRBs granted in the subframe.
func (r *SubframeReport) AllocatedPRBs() int {
	n := 0
	for i := range r.Allocs {
		n += r.Allocs[i].PRBs
	}
	return n
}

// IdlePRBs returns the unallocated PRBs of the subframe (the paper's
// Eqn. 4 numerator contribution).
func (r *SubframeReport) IdlePRBs() int { return r.NPRB - r.AllocatedPRBs() }

// Monitor consumes per-subframe control information from one cell, the
// role of the PBE-CC client's decoder threads.
type Monitor func(rep *SubframeReport)

// EncodeReport renders a subframe report as an encoded PDCCH control
// region, so that monitors can consume control information recovered from
// coded bits rather than simulator structs. Control-plane grants become
// Format 1A, two-stream grants Format 2, and other data grants Format 1.
// The DCI MCS field carries the CQI index. It returns nil if any message
// fails to fit in the control region.
func EncodeReport(rep *SubframeReport, cfi int) *pdcch.Region {
	bw := pdcch.Bandwidth{NPRB: rep.NPRB}
	region := pdcch.NewRegion(bw, cfi, rep.Subframe)
	p := bw.RBGSize()
	for i := range rep.Allocs {
		a := &rep.Allocs[i]
		d := pdcch.DCI{RNTI: a.RNTI, MCS: uint8(a.MCS.CQI), NDI: a.NDI}
		level := 2
		switch {
		case a.Control:
			d.Format = pdcch.Format1A
			d.RIVStart = a.FirstRBG * p
			d.RIVLen = a.PRBs
		case a.MCS.Streams >= 2:
			d.Format = pdcch.Format2
			d.RBGBitmap = pdcch.ContiguousRBGBitmap(a.FirstRBG, a.NumRBGs)
			d.Precode = 1
			level = 4
		default:
			d.Format = pdcch.Format1
			d.RBGBitmap = pdcch.ContiguousRBGBitmap(a.FirstRBG, a.NumRBGs)
			level = 4
		}
		if !region.Place(&d, level) {
			return nil
		}
	}
	return region
}

// DecodeReport blind-decodes a control region back into a subframe report,
// reconstructing each user's PRB count, physical rate (from the CQI carried
// in the MCS field plus the format-implied stream count), and new-data
// indicator. The CQI table is cell configuration a real UE learns from
// system information. Grants decode in CCE order; the Control flag is not
// recoverable from the air interface and is always false.
func DecodeReport(region *pdcch.Region, cellID int, table phy.CQITable, dec *pdcch.Decoder) *SubframeReport {
	bw := region.Bandwidth
	rep := &SubframeReport{CellID: cellID, Subframe: region.Subframe, NPRB: bw.NPRB}
	for _, m := range dec.Decode(region) {
		d := m.DCI
		if d.Format == pdcch.Format0 {
			continue // uplink grant: no downlink PRBs
		}
		prbs := d.AllocatedPRBs(bw)
		firstRBG, numRBGs := rbgSpan(&d, bw)
		rep.Allocs = append(rep.Allocs, Alloc{
			RNTI:     d.RNTI,
			FirstRBG: firstRBG,
			NumRBGs:  numRBGs,
			PRBs:     prbs,
			MCS:      phy.MCS{CQI: int(d.MCS), Table: table, Streams: d.Streams()},
			TBBits:   int(float64(prbs) * phy.MCS{CQI: int(d.MCS), Table: table, Streams: d.Streams()}.BitsPerPRB()),
			NDI:      d.NDI,
		})
	}
	return rep
}

// rbgSpan recovers the covered RBG range of a decoded DCI.
func rbgSpan(d *pdcch.DCI, bw pdcch.Bandwidth) (first, num int) {
	switch d.Format {
	case pdcch.Format1, pdcch.Format2:
		first = -1
		for i := 0; i < bw.NumRBGs(); i++ {
			if d.RBGBitmap&(1<<uint(i)) != 0 {
				if first < 0 {
					first = i
				}
				num++
			}
		}
		if first < 0 {
			first = 0
		}
		return first, num
	case pdcch.Format1A:
		p := bw.RBGSize()
		first = d.RIVStart / p
		last := (d.RIVStart + d.RIVLen - 1) / p
		return first, last - first + 1
	}
	return 0, 0
}
