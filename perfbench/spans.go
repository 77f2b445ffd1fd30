package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Span is one timed call the benchmark made into a layer's public entry
// point. Spans of one process share a Pid; Parent is the ID of the span
// that was open when this one started (0 for a root span).
type Span struct {
	Name    string  `json:"name"`
	Cat     string  `json:"cat"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Pid     int     `json:"pid"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

// spanLog keeps spans in memory; nothing is written until the run ends.
// A nil *spanLog records nothing, which is how untraced runs call it.
type spanLog struct {
	epoch time.Time
	pid   int
	spans []Span
	open  []int // stack of open span IDs
}

func newSpanLog(pid int) *spanLog { return &spanLog{epoch: time.Now(), pid: pid} }

// begin opens a span and returns the function that closes it.
func (l *spanLog) begin(cat, name string) func() {
	if l == nil {
		return func() {}
	}
	id := len(l.spans) + 1
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	start := time.Now()
	l.spans = append(l.spans, Span{Name: name, Cat: cat, ID: id, Parent: parent, Pid: l.pid,
		StartUs: float64(start.Sub(l.epoch).Nanoseconds()) / 1e3})
	l.open = append(l.open, id)
	return func() {
		l.spans[id-1].DurUs = float64(time.Since(start).Nanoseconds()) / 1e3
		l.open = l.open[:len(l.open)-1]
	}
}

// add records an already-measured interval as a child of the open span.
func (l *spanLog) add(cat, name string, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, Span{Name: name, Cat: cat, ID: len(l.spans) + 1, Parent: parent,
		Pid: l.pid, StartUs: float64(start.Sub(l.epoch).Nanoseconds()) / 1e3,
		DurUs: float64(d.Nanoseconds()) / 1e3})
}

// writeSpans writes spans as Chrome trace-event JSON (load it in
// Perfetto or chrome://tracing); parent links ride in each event's args.
func writeSpans(path string, spans []Span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{Name: s.Name, Cat: s.Cat, Ph: "X", Ts: s.StartUs, Dur: s.DurUs,
			Pid: s.Pid, Tid: 1, Args: map[string]int{"id": s.ID, "parent": s.Parent}})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
