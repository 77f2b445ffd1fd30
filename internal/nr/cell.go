// Package nr is a slot-accurate simulator of the 5G New Radio MAC layer:
// cells with flexible numerology (subcarrier spacing 15 kHz * 2^µ, so slots
// of 1/0.5/0.25/0.125 ms), wide sub-6 and mmWave carriers, 256-QAM by
// default, per-slot PDCCH emission in the same report format the LTE cells
// use (so the PBE-CC monitor consumes both RATs), code-block-group HARQ
// retransmission a fixed number of slots after an erroneous transport
// block, and an EN-DC dual-connectivity UE that aggregates an LTE anchor
// with an NR secondary cell (the non-standalone deployment the paper's 5G
// discussion targets).
//
// An NR cell is the LTE package's scheduler kernel run with NR's
// constants (lte.RAT): the slot clock, the TS 38.214 RBG sizes, 4-PRB
// control grants on subframe boundaries, a per-slot rotating water-fill
// order and code-block-group HARQ. Cross-RAT comparisons thereby isolate
// the effect of those constants, not of a different scheduler.
package nr

import (
	"time"

	"pbecc/internal/lte"
	"pbecc/internal/phy"
	"pbecc/internal/sim"
)

// HARQDelaySlots is the retransmission delay. NR uses asynchronous HARQ
// with a typical round-trip of a few slots; the kernel keeps the LTE count
// of eight scheduling intervals (and lte.MaxRetransmissions retries),
// which in wall time shrinks with the numerology (8 slots = 1 ms at µ=3),
// matching NR's lower retransmission latency.
const HARQDelaySlots = lte.HARQDelaySubframes

// CodeBlockBits is the maximum code block size of the NR LDPC coder
// (3GPP TS 38.212 §5.2.2). NR transport blocks are far larger than LTE's,
// so whole-TB retransmission would waste a large fraction of the carrier;
// instead the receiver acknowledges code-block groups and only failed
// groups are retransmitted, in a proportionally smaller grant.
const CodeBlockBits = 8448

// DefaultPerUserQueueBytes caps one user's downlink queue at an NR cell.
// NR base stations provision deeper RLC buffers than LTE in proportion to
// carrier rate (roughly 100 ms at 500 Mbit/s).
const DefaultPerUserQueueBytes = 6_000_000

// TBSink receives completed transport blocks from a cell.
type TBSink = lte.TBSink

// Config describes one NR carrier.
type Config struct {
	ID int
	Mu int // numerology µ: 0..3 (slot = 1 ms / 2^µ)

	// NPRB is the carrier width in PRBs. When zero it is derived from
	// BandwidthMHz via the 3GPP transmission-bandwidth tables.
	NPRB         int
	BandwidthMHz int

	// Table selects the CQI table; zero means 256-QAM, the NR default.
	Table phy.CQITable

	// Control produces per-slot control-plane grants (nil = quiet cell).
	// The lte.ControlSource interface is reused; it ticks once per
	// subframe with the subframe index.
	Control lte.ControlSource

	// PerUserQueueBytes caps each user's downlink queue; zero selects
	// DefaultPerUserQueueBytes, negative means unbounded.
	PerUserQueueBytes int
}

// Cell is one NR component carrier: the shared scheduler kernel on a slot
// clock of numerology Mu. Subframe, like Slot, returns the slot index.
type Cell struct {
	*lte.Cell
	Mu int
}

// NewCell creates an NR cell from the config and starts its slot ticker on
// the engine. It panics if the carrier width cannot be determined.
func NewCell(eng *sim.Engine, cfg Config) *Cell {
	nprb := cfg.NPRB
	if nprb == 0 {
		nprb = phy.NRCarrierPRBs(cfg.Mu, cfg.BandwidthMHz)
	}
	if nprb <= 0 {
		panic("nr: cell needs NPRB or a defined µ/bandwidth combination")
	}
	table := cfg.Table
	if table == 0 {
		table = phy.Table256QAM
	}
	queue := DefaultPerUserQueueBytes
	switch {
	case cfg.PerUserQueueBytes > 0:
		queue = cfg.PerUserQueueBytes
	case cfg.PerUserQueueBytes < 0:
		queue = 0
	}
	return &Cell{Mu: cfg.Mu, Cell: lte.NewRATCell(eng, cfg.ID, nprb, table, cfg.Control, lte.RAT{
		SlotsPerSubframe: phy.NRSlotsPerSubframe(cfg.Mu),
		RBGSize:          rbgSizeFor(nprb),
		ControlUnitPRBs:  ControlGrantPRBs,
		RotateOrder:      true,
		CBGBits:          CodeBlockBits,
		QueueBytes:       queue,
	})}
}

// ControlGrantPRBs is the downlink footprint of one control-grant unit.
// The control-traffic populations in package trace are calibrated in
// 20 MHz LTE RBGs of four PRBs; NR carries such small allocations with
// resource-allocation type 1 (contiguous PRBs, no RBG rounding), so one
// grant unit occupies four PRBs here too and the paper's Ta/Pa filter
// thresholds keep their meaning on NR cells despite the 16-PRB RBGs.
const ControlGrantPRBs = 4

// rbgSizeFor returns the nominal RBG size P of 3GPP TS 38.214
// Table 5.1.2.2.1-1 (configuration 1).
func rbgSizeFor(nprb int) int {
	switch {
	case nprb <= 36:
		return 2
	case nprb <= 72:
		return 4
	case nprb <= 144:
		return 8
	default:
		return 16
	}
}

// Slot returns the index of the last processed slot.
func (c *Cell) Slot() int { return c.Subframe() }

// BlockageTrajectory builds the abrupt mmWave blockage profile: the RSSI
// holds at base dBm, collapses by depth dB over a 10 ms edge at start, and
// recovers at end. A blocked mmWave beam loses tens of dB within
// milliseconds when a body or vehicle crosses the path; depth around 30 dB
// reproduces the capacity collapse the paper's 5G discussion anticipates.
func BlockageTrajectory(base, depth float64, start, end time.Duration) phy.Trajectory {
	const edge = 10 * time.Millisecond
	return phy.Trajectory{
		{Start: 0, End: start, FromDBm: base, ToDBm: base},
		{Start: start, End: start + edge, FromDBm: base, ToDBm: base - depth},
		{Start: start + edge, End: end, FromDBm: base - depth, ToDBm: base - depth},
		{Start: end, End: end + edge, FromDBm: base - depth, ToDBm: base},
	}
}
