package nr

import (
	"time"

	"pbecc/internal/lte"
	"pbecc/internal/netsim"
	"pbecc/internal/phy"
	"pbecc/internal/sim"
)

// EN-DC secondary-cell-group policy constants, mirroring the LTE
// carrier-aggregation dynamics of the paper's Figure 2: the NR leg
// activates after roughly 100 ms of sustained demand on the LTE anchor and
// deactivates once the offered load fits comfortably in the anchor alone.
const (
	scgDecisionWindow  = 100 // subframes observed before activation
	scgActivateFrac    = 0.8 // fraction of window that must show demand
	scgOccupancyFrac   = 0.6 // anchor PRB share that signals demand
	scgBacklogBits     = 12000
	scgActivateHoldoff = 150 * time.Millisecond
	scgDeactWindow     = 500 // subframes for the deactivation decision
	scgDeactFrac       = 0.6 // load must fit in this fraction of the anchor
	scgDeactHoldoff    = 500 * time.Millisecond
)

// ENDC is a non-standalone (EN-DC, 3GPP option 3) dual-connectivity UE: an
// LTE anchor carries the connection and, under sustained demand, the
// network activates an NR secondary cell group whose capacity is
// aggregated with the anchor's. Downlink packets are split across the two
// RATs by estimated drain time, each leg reorders its own HARQ-delayed
// transport blocks, and released packets merge into per-flow receivers.
type ENDC struct {
	// Router merges the packets both legs release into per-flow
	// handlers.
	lte.Router

	eng  *sim.Engine
	ID   int
	RNTI uint16

	anchor *lte.UE
	nrLeg  *UE
	nrCell *Cell
	nrUser *lte.CellUser // the NR leg's handle on nrCell

	nrActive bool
	enabled  bool

	onSecondaryChange []func(active bool)

	// SCG decision state, sampled on the anchor's subframe clock.
	window     lte.LoadWindow
	lastChange time.Duration
	ticker     *sim.Ticker

	// Counters.
	Activations   uint64
	Deactivations uint64
}

// NewENDC builds a dual-connectivity UE from an LTE anchor and one NR
// secondary cell. The anchor must already be attached to its LTE cells;
// the EN-DC UE takes over its flow routing (packets released by either leg
// merge through the EN-DC flow table). The NR leg attaches immediately but
// stays inactive until demand activates it.
func NewENDC(eng *sim.Engine, id int, rnti uint16, anchor *lte.UE, nrCell *Cell, nrCh *phy.Channel) *ENDC {
	e := &ENDC{
		Router:  lte.NewRouter(eng),
		eng:     eng,
		ID:      id,
		RNTI:    rnti,
		anchor:  anchor,
		nrCell:  nrCell,
		enabled: true,
		window:  lte.NewLoadWindow(scgDecisionWindow, scgDeactWindow),
	}
	e.nrLeg = NewUE(eng, id, rnti)
	e.nrLeg.AddCell(nrCell, nrCh)
	e.nrUser = e.nrLeg.users[0]
	merge := netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) { e.Route(p) })
	anchor.SetDefaultHandler(merge)
	e.nrLeg.SetDefaultHandler(merge)
	return e
}

// AnchorUE returns the LTE anchor leg.
func (e *ENDC) AnchorUE() *lte.UE { return e.anchor }

// NRCell returns the secondary NR carrier.
func (e *ENDC) NRCell() *Cell { return e.nrCell }

// NRActive reports whether the NR secondary cell group is active.
func (e *ENDC) NRActive() bool { return e.nrActive }

// SetDualConnectivity enables or disables NR secondary activation
// (disabled models an LTE-only data plan on a 5G phone).
func (e *ENDC) SetDualConnectivity(on bool) { e.enabled = on }

// OnSecondaryChange registers a callback fired when the NR leg activates
// or deactivates (PBE-CC's monitor attaches or detaches the NR cell on
// this event, restarting its ramp as in §4.1).
func (e *ENDC) OnSecondaryChange(fn func(active bool)) {
	e.onSecondaryChange = append(e.onSecondaryChange, fn)
}

// Start begins the anchor's carrier-aggregation bookkeeping and the EN-DC
// secondary-activation policy on the subframe clock.
func (e *ENDC) Start() {
	e.anchor.Start()
	if e.ticker == nil {
		e.ticker = e.eng.Every(time.Millisecond, e.tick)
	}
}

// Stop halts both legs' tickers.
func (e *ENDC) Stop() {
	e.anchor.Stop()
	if e.ticker != nil {
		e.ticker.Stop()
		e.ticker = nil
	}
}

// Delivered returns the packets released in order across both legs.
func (e *ENDC) Delivered() uint64 { return e.anchor.Delivered + e.nrLeg.Delivered }

// LostPackets returns the packets lost after HARQ exhaustion on either leg.
func (e *ENDC) LostPackets() uint64 { return e.anchor.LostPackets + e.nrLeg.LostPackets }

// HandlePacket dispatches an arriving downlink packet: to the anchor while
// the NR leg is inactive, otherwise to the leg with the smaller estimated
// drain time (the network's bearer split across RATs). Drain times compare
// in wall-clock seconds, which makes the split numerology-agnostic.
func (e *ENDC) HandlePacket(now time.Duration, p *netsim.Packet) {
	if !e.nrActive {
		e.anchor.HandlePacket(now, p)
		return
	}
	anchorRate := e.anchorRateBps()
	nrRate := e.nrUser.RateBps()
	if nrRate <= 0 {
		e.anchor.HandlePacket(now, p)
		return
	}
	if anchorRate <= 0 {
		e.nrLeg.HandlePacket(now, p)
		return
	}
	anchorDrain := float64(e.anchorQueueBits()) / anchorRate
	nrDrain := float64(e.nrUser.QueueBits()) / nrRate
	if nrDrain < anchorDrain {
		e.nrLeg.HandlePacket(now, p)
		return
	}
	e.anchor.HandlePacket(now, p)
}

// anchorRateBps sums the anchor's active-cell rates in bits per second.
func (e *ENDC) anchorRateBps() float64 {
	var rate float64
	for _, cu := range e.anchor.ActiveCellUsers() {
		rate += cu.RateBps()
	}
	return rate
}

// anchorQueueBits sums the bits queued for this UE across the anchor's
// active cells.
func (e *ENDC) anchorQueueBits() int {
	bits := 0
	for _, cu := range e.anchor.ActiveCellUsers() {
		bits += cu.QueueBits()
	}
	return bits
}

// tick runs once per subframe, sampling anchor demand and total served
// load for the secondary-activation policy.
func (e *ENDC) tick() {
	queued := e.anchorQueueBits()
	userPRBs := 0
	totalPRBs := 0
	served := 0
	cells := e.anchor.ActiveCells()
	for i, cu := range e.anchor.ActiveCellUsers() {
		userPRBs += cu.LastPRBs()
		totalPRBs += cells[i].NPRB
		served += cu.LastServedBits()
	}
	if e.nrActive {
		// The NR cell schedules 2^µ slots per subframe; LastServedBits
		// covers only the latest slot, so scale it to a per-subframe
		// estimate for the deactivation decision.
		served += e.nrUser.LastServedBits() * e.nrCell.SlotsPerSubframe()
	}
	e.window.Add(queued >= scgBacklogBits ||
		float64(userPRBs) >= scgOccupancyFrac*float64(totalPRBs), served)
	if !e.enabled {
		return
	}
	now := e.eng.Now()

	// Activation: sustained demand on the anchor over the decision window.
	if !e.nrActive && now-e.lastChange >= scgActivateHoldoff &&
		e.window.Sustained(scgActivateFrac) {
		e.setNRActive(now, true)
		return
	}

	// Deactivation: the served load of the last window would fit
	// comfortably in the anchor alone.
	if sum, full := e.window.Served(); e.nrActive && full &&
		now-e.lastChange >= scgDeactHoldoff {
		anchorCap := e.anchorRateBps() / 1000 * float64(scgDeactWindow)
		if float64(sum) <= scgDeactFrac*anchorCap {
			e.setNRActive(now, false)
		}
	}
}

func (e *ENDC) setNRActive(now time.Duration, active bool) {
	e.nrActive = active
	e.lastChange = now
	if active {
		e.Activations++
	} else {
		e.Deactivations++
	}
	e.window.Reset()
	for _, fn := range e.onSecondaryChange {
		fn(active)
	}
}
