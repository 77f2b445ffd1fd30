package nr

import (
	"time"

	"pbecc/internal/lte"
	"pbecc/internal/netsim"
	"pbecc/internal/phy"
	"pbecc/internal/sim"
)

// UE is a standalone-mode 5G device: it dispatches arriving downlink
// packets across its NR carriers, reorders HARQ-delayed transport blocks
// per cell, and releases packets in order to per-flow receivers. Unlike
// the LTE UE it runs no carrier-(de)activation policy - NR carriers are
// semi-statically configured; dynamic secondary activation is the EN-DC
// UE's job.
type UE struct {
	lte.Receiver
	ID   int
	RNTI uint16

	cells []*Cell
	users []*lte.CellUser // this UE's handle on each of cells
}

// NewUE creates an NR UE; add carriers with AddCell.
func NewUE(eng *sim.Engine, id int, rnti uint16) *UE {
	return &UE{Receiver: lte.NewReceiver(eng), ID: id, RNTI: rnti}
}

// AddCell attaches the UE to an NR carrier with the given radio channel.
func (u *UE) AddCell(c *Cell, ch *phy.Channel) {
	u.users = append(u.users, u.Attach(c.Cell, u.RNTI, ch))
	u.cells = append(u.cells, c)
}

// Cells returns the attached carriers. The returned slice must not be
// modified.
func (u *UE) Cells() []*Cell { return u.cells }

// HandlePacket dispatches an arriving downlink packet to the carrier with
// the smallest estimated drain time, comparing cells of different
// numerologies in wall-clock seconds.
func (u *UE) HandlePacket(now time.Duration, p *netsim.Packet) {
	best := -1
	bestDrain := 0.0
	for i, cu := range u.users {
		rate := cu.RateBps()
		if rate <= 0 {
			continue
		}
		drain := float64(cu.QueueBits()) / rate
		if best < 0 || drain < bestDrain {
			best, bestDrain = i, drain
		}
	}
	if best < 0 {
		best = 0
	}
	u.users[best].Enqueue(p)
}
