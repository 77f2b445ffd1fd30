package core

import (
	"math"
	"math/rand"
	"testing"

	"pbecc/internal/lte"
	"pbecc/internal/phy"
)

// memoCell is one carrier of the memo equivalence test: its monitor
// parameters and the Rate and BER values its hooks currently return.
type memoCell struct {
	info      CellInfo
	rate, ber float64
}

// forget drops every memoized value of m, so its next read recomputes
// from the window.
func forget(m *Monitor) {
	for _, ct := range m.tracks {
		ct.n = 0
		ct.capMemo, ct.fairMemo = eqn5Memo{}, eqn5Memo{}
	}
}

// refTranslate sums Eqn 5 over ref's cells with no memo: per gives a
// cell's physical bits per ms.
func refTranslate(ref *Monitor, per func(id int) float64) float64 {
	var total float64
	for _, id := range ref.ActiveCellIDs() {
		info := ref.cells[id].info
		cp := per(id)
		ber := info.BER()
		if info.CBGBits > 0 {
			total += phy.TransportFromPhysicalCBG(cp, ber, info.CBGBits)
		} else {
			total += phy.TransportFromPhysical(cp, ber)
		}
	}
	return total
}

// TestMonitorMemoMatchesDirectSolve drives a memoized monitor and a
// reference monitor through the same random reports, attach/detach,
// Rate and BER changes between reports (the stale-decode case: the
// window stands still while the channel moves), UseFilter flips, and
// LTE and code-block-group NR cells. Every capacity read must be
// bit-equal to a fresh Eqn 5 solve on the reference, whose memos are
// dropped before each read, and Noise must be drawn exactly once per
// CapacityBits or FairShareBits call.
func TestMonitorMemoMatchesDirectSolve(t *testing.T) {
	cells := []*memoCell{
		{info: CellInfo{ID: 1, NPRB: 100}},
		{info: CellInfo{ID: 2, NPRB: 273, SlotsPerSubframe: 2, CBGBits: 8448}},
		{info: CellInfo{ID: 3, NPRB: 50}},
	}
	bers := []float64{1e-6, 2.5e-6, 5e-6}
	rates := []float64{200, 400, 650}
	for _, c := range cells {
		c.rate, c.ber = rates[0], bers[0]
		c.info.Rate = func() float64 { return c.rate }
		c.info.BER = func() float64 { return c.ber }
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, ref := NewMonitor(61), NewMonitor(61)
		m.Window, ref.Window = 8, 8 // short, so evictions are frequent
		noiseCalls := 0
		m.Noise = func(v float64) float64 { noiseCalls++; return v }
		attach := func(c *memoCell) { m.AttachCell(c.info); ref.AttachCell(c.info) }
		attach(cells[0])
		attach(cells[1])
		hits, misses := 0, 0
		for step := 0; step < 3000; step++ {
			c := cells[rng.Intn(len(cells))]
			switch op := rng.Intn(20); {
			case op < 9:
				rep := &lte.SubframeReport{CellID: c.info.ID, Subframe: step, NPRB: c.info.NPRB}
				left := c.info.NPRB
				for k := rng.Intn(5); k > 0 && left > 0; k-- {
					prbs := 1 + rng.Intn(min(left, 40))
					left -= prbs
					rep.Allocs = append(rep.Allocs, lte.Alloc{
						RNTI: uint16(61 + rng.Intn(6)), PRBs: prbs,
						MCS: phy.MCS{CQI: 1 + rng.Intn(15), Table: phy.Table64QAM, Streams: 1 + rng.Intn(2)},
					})
				}
				m.OnSubframe(rep)
				ref.OnSubframe(rep)
			case op < 11:
				c.ber = bers[rng.Intn(len(bers))]
			case op == 11:
				c.rate = rates[rng.Intn(len(rates))]
			case op == 12:
				attach(c)
			case op == 13:
				m.DetachCell(c.info.ID)
				ref.DetachCell(c.info.ID)
			case op == 14:
				m.UseFilter = !m.UseFilter
				ref.UseFilter = m.UseFilter
			default:
				before := make([]eqn5Memo, len(m.tracks))
				for i, ct := range m.tracks {
					before[i] = ct.capMemo
				}
				calls := noiseCalls
				gotC, gotF := m.CapacityBits(), m.FairShareBits()
				if noiseCalls != calls+2 {
					t.Fatalf("seed %d step %d: %d Noise draws for one CapacityBits and one FairShareBits, want 2",
						seed, step, noiseCalls-calls)
				}
				for i, ct := range m.tracks {
					if before[i].ok && before[i] == ct.capMemo {
						hits++
					} else {
						misses++
					}
				}
				forget(ref)
				wantC := refTranslate(ref, ref.CellCapacityPerMs)
				forget(ref)
				wantF := refTranslate(ref, ref.CellFairSharePerMs)
				if math.Float64bits(gotC) != math.Float64bits(wantC) || m.LastCapacityBits() != gotC {
					t.Fatalf("seed %d step %d: CapacityBits = %v (last %v), direct solve %v",
						seed, step, gotC, m.LastCapacityBits(), wantC)
				}
				if math.Float64bits(gotF) != math.Float64bits(wantF) {
					t.Fatalf("seed %d step %d: FairShareBits = %v, direct solve %v", seed, step, gotF, wantF)
				}
				for _, id := range ref.ActiveCellIDs() {
					forget(ref)
					if got, want := m.ActiveUsers(id), ref.ActiveUsers(id); got != want {
						t.Fatalf("seed %d step %d cell %d: ActiveUsers = %d, want %d", seed, step, id, got, want)
					}
					forget(ref)
					if got, want := m.CellCapacity(id), ref.CellCapacity(id); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d step %d cell %d: CellCapacity = %v, want %v", seed, step, id, got, want)
					}
					forget(ref)
					if got, want := m.CellFairShare(id), ref.CellFairShare(id); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d step %d cell %d: CellFairShare = %v, want %v", seed, step, id, got, want)
					}
				}
			}
		}
		if hits == 0 || misses == 0 {
			t.Fatalf("seed %d: %d memo hits and %d misses; the walk must exercise both", seed, hits, misses)
		}
	}
}
