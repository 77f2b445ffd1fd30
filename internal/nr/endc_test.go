package nr

import (
	"testing"
	"time"

	"pbecc/internal/lte"
	"pbecc/internal/netsim"
	"pbecc/internal/phy"
	"pbecc/internal/sim"
)

// TestENDCReleasesUnroutedPacket: a packet an EN-DC UE delivers with no
// flow or default handler is dropped at the UE, which was its last owner,
// so it must go back to the pool.
func TestENDCReleasesUnroutedPacket(t *testing.T) {
	eng := sim.New(10)
	anchorCell := lte.NewCell(eng, 1, 100, phy.Table64QAM, nil)
	nrCell := NewCell(eng, Config{ID: 101, Mu: 1, BandwidthMHz: 100})
	anchor := lte.NewUE(eng, 1, 61)
	anchor.AddCell(anchorCell, phy.NewStaticChannel(-85, phy.Table64QAM, nil))
	endc := NewENDC(eng, 1, 61, anchor, nrCell, phy.NewStaticChannel(-85, nrCell.Table, nil))
	endc.Start()

	p := netsim.PoolOf(eng).Get()
	p.FlowID, p.Size = 7, netsim.MSS
	h := netsim.HandleOf(p)
	endc.HandlePacket(0, p)
	eng.RunUntil(20 * time.Millisecond)
	if endc.Delivered() != 1 {
		t.Fatalf("delivered %d packets, want 1", endc.Delivered())
	}
	if h.Live() {
		t.Fatal("unrouted packet was not released to the pool")
	}
}
