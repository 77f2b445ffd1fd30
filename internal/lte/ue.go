package lte

import (
	"time"

	"pbecc/internal/netsim"
	"pbecc/internal/phy"
	"pbecc/internal/sim"
)

// Carrier-aggregation policy constants, calibrated to the dynamics of the
// paper's Figure 2 (secondary cell activated about 130 ms after a
// high-rate flow starts; deactivated a few hundred ms after load drops).
const (
	caDecisionWindow  = 100 // subframes observed before activation
	caActivateFrac    = 0.8 // fraction of window that must show demand
	caOccupancyFrac   = 0.6 // user share of active-cell PRBs that signals demand
	caBacklogBits     = 12000
	caActivateHoldoff = 150 * time.Millisecond
	caDeactWindow     = 500 // subframes for the deactivation decision
	caDeactFrac       = 0.6 // load must fit in this fraction of n-1 cells
	caDeactHoldoff    = 500 * time.Millisecond
)

// UE is one mobile device: it dispatches arriving downlink packets across
// its active component carriers, reorders HARQ-delayed transport blocks
// per cell, releases packets in order to per-flow receivers, and runs the
// network side's carrier (de)activation policy.
type UE struct {
	Receiver
	ID   int
	RNTI uint16

	cells  []*Cell
	users  []*CellUser // this UE's handle on each of cells
	active int

	onActiveChange []func(active []*Cell)

	// CA decision state.
	caEnabled    bool
	window       LoadWindow
	lastCAChange time.Duration
	ticker       *sim.Ticker

	// Counters.
	Activations   uint64
	Deactivations uint64
}

// NewUE creates a UE; add component carriers with AddCell (primary first),
// then Start.
func NewUE(eng *sim.Engine, id int, rnti uint16) *UE {
	return &UE{
		Receiver:  NewReceiver(eng),
		ID:        id,
		RNTI:      rnti,
		caEnabled: true,
		window:    NewLoadWindow(caDecisionWindow, caDeactWindow),
	}
}

// AddCell configures a component carrier; the first call sets the primary
// cell. The UE attaches to the cell immediately, but packets are only
// dispatched to active carriers.
func (u *UE) AddCell(c *Cell, ch *phy.Channel) {
	u.users = append(u.users, u.Attach(c, u.RNTI, ch))
	u.cells = append(u.cells, c)
	if u.active == 0 {
		u.active = 1
	}
}

// SetCarrierAggregation enables or disables secondary-cell activation
// (disabled models a device like the paper's Redmi 8 with one carrier).
func (u *UE) SetCarrierAggregation(on bool) { u.caEnabled = on }

// Start begins the UE's per-subframe carrier-aggregation bookkeeping.
func (u *UE) Start() {
	if u.ticker != nil {
		return
	}
	u.ticker = u.eng.Every(time.Millisecond, u.tick)
}

// Stop halts the UE's ticker.
func (u *UE) Stop() {
	if u.ticker != nil {
		u.ticker.Stop()
		u.ticker = nil
	}
}

// ActiveCells returns the currently active component carriers, primary
// first. The returned slice must not be modified.
func (u *UE) ActiveCells() []*Cell { return u.cells[:u.active] }

// ActiveCellUsers returns the UE's handles on its active carriers, in
// ActiveCells order. The returned slice must not be modified.
func (u *UE) ActiveCellUsers() []*CellUser { return u.users[:u.active] }

// OnActiveChange registers a callback fired whenever the active carrier
// set changes (PBE-CC's monitor restarts its fair-share ramp on this
// event, §4.1).
func (u *UE) OnActiveChange(fn func(active []*Cell)) {
	u.onActiveChange = append(u.onActiveChange, fn)
}

// HandlePacket dispatches an arriving downlink packet to the active cell
// with the smallest estimated drain time, implementing the network's
// bearer split across aggregated carriers.
func (u *UE) HandlePacket(now time.Duration, p *netsim.Packet) {
	best := -1
	bestDrain := 0.0
	for i := 0; i < u.active; i++ {
		cu := u.users[i]
		rate := cu.Rate() * float64(u.cells[i].NPRB) // bits per subframe if alone
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

// tick runs once per subframe after the cells have scheduled, sampling
// demand and served load for the carrier-aggregation policy.
func (u *UE) tick() {
	queued := 0
	userPRBs := 0
	totalPRBs := 0
	served := 0
	for i := 0; i < u.active; i++ {
		cu := u.users[i]
		queued += cu.QueueBits()
		userPRBs += cu.LastPRBs()
		totalPRBs += u.cells[i].NPRB
		served += cu.LastServedBits()
	}
	u.window.Add(queued >= caBacklogBits ||
		float64(userPRBs) >= caOccupancyFrac*float64(totalPRBs), served)
	if !u.caEnabled {
		return
	}
	now := u.eng.Now()

	// Activation: sustained demand over the decision window.
	if u.active < len(u.cells) && now-u.lastCAChange >= caActivateHoldoff &&
		u.window.Sustained(caActivateFrac) {
		u.active++
		u.Activations++
		u.lastCAChange = now
		u.window.Reset()
		u.notifyActiveChange()
		return
	}

	// Deactivation: the served load of the last window would fit
	// comfortably in the active cells minus the last one.
	if sum, full := u.window.Served(); u.active > 1 && full &&
		now-u.lastCAChange >= caDeactHoldoff {
		var capMinusLast float64
		for i := 0; i < u.active-1; i++ {
			capMinusLast += u.users[i].Rate() * float64(u.cells[i].NPRB) * float64(caDeactWindow)
		}
		if float64(sum) <= caDeactFrac*capMinusLast {
			u.active--
			u.Deactivations++
			u.lastCAChange = now
			u.window.Reset()
			u.notifyActiveChange()
		}
	}
}

func (u *UE) notifyActiveChange() {
	act := u.ActiveCells()
	for _, fn := range u.onActiveChange {
		fn(act)
	}
}

// Receiver is the device side that LTE and NR UEs share: it reorders
// HARQ-delayed transport blocks per cell (the reordering buffer of
// Figure 3) and releases their packets in order through a Router. It
// implements TBSink.
type Receiver struct {
	Router
	reorder map[int]*reorderState

	// Counters.
	LostPackets uint64
	Delivered   uint64
}

type reorderState struct {
	next    uint64
	pending map[uint64]tbArrival
}

type tbArrival struct {
	packets []*netsim.Packet
	ok      bool
}

// NewReceiver returns a receiver on eng with no cells attached.
func NewReceiver(eng *sim.Engine) Receiver {
	return Receiver{Router: NewRouter(eng), reorder: make(map[int]*reorderState)}
}

// Attach connects the receiver to cell c under rnti with radio channel ch,
// opens the cell's reorder buffer and returns the user's cell handle.
func (r *Receiver) Attach(c *Cell, rnti uint16, ch *phy.Channel) *CellUser {
	if c.eng != r.eng {
		// Cells and their users share one event engine; in sharded runs a
		// UE spanning shards would race its own carriers. Only netsim
		// links may cross a shard boundary.
		panic("lte: UE and cell live on different engines (shard boundary)")
	}
	cu := c.AttachUser(r, rnti, ch)
	r.reorder[c.ID] = &reorderState{pending: make(map[uint64]tbArrival)}
	return cu
}

// DeliverTB receives one transport block's completed packets from a cell
// (ok=false marks a block lost after exhausting HARQ retransmissions) and
// releases packets in per-cell order.
func (r *Receiver) DeliverTB(cellID int, seq uint64, packets []*netsim.Packet, ok bool) {
	st := r.reorder[cellID]
	if st == nil {
		return
	}
	st.pending[seq] = tbArrival{packets: packets, ok: ok}
	for {
		a, exists := st.pending[st.next]
		if !exists {
			return
		}
		delete(st.pending, st.next)
		st.next++
		for _, p := range a.packets {
			if !a.ok {
				// Lost after exhausting HARQ: the packets never reach a
				// flow handler, so the reorder buffer is their last owner.
				r.LostPackets++
				r.pool.Release(p)
				continue
			}
			r.Delivered++
			r.Route(p)
		}
	}
}

// Router hands released packets to per-flow handlers.
type Router struct {
	eng         *sim.Engine
	pool        *netsim.PacketPool
	flows       map[int]netsim.Handler
	defaultFlow netsim.Handler
}

// NewRouter returns a router on eng with no handlers.
func NewRouter(eng *sim.Engine) Router {
	return Router{eng: eng, pool: netsim.PoolOf(eng), flows: make(map[int]netsim.Handler)}
}

// RegisterFlow routes released packets with the given flow ID to h.
func (r *Router) RegisterFlow(flowID int, h netsim.Handler) { r.flows[flowID] = h }

// SetDefaultHandler routes packets of unregistered flows.
func (r *Router) SetDefaultHandler(h netsim.Handler) { r.defaultFlow = h }

// Route hands p to its flow's handler, or else to the default handler.
// With neither, the packet is dropped here and released to the pool: the
// router was its last owner.
func (r *Router) Route(p *netsim.Packet) {
	h := r.flows[p.FlowID]
	if h == nil {
		h = r.defaultFlow
	}
	if h != nil {
		h.HandlePacket(r.eng.Now(), p)
		return
	}
	r.pool.Release(p)
}

// LoadWindow is the per-subframe record behind secondary-carrier
// activation, shared by LTE carrier aggregation and the EN-DC secondary
// cell group: a ring of demand flags for the activation decision and a
// ring of served bits for the deactivation decision.
type LoadWindow struct {
	demand     []bool
	demandIdx  int
	demandFill int
	served     []int
	servedIdx  int
	servedFill int
	servedSum  int64
}

// NewLoadWindow returns an empty window over demandLen subframes of
// demand and servedLen subframes of served load.
func NewLoadWindow(demandLen, servedLen int) LoadWindow {
	return LoadWindow{demand: make([]bool, demandLen), served: make([]int, servedLen)}
}

// Add records one subframe's demand flag and served bits.
func (w *LoadWindow) Add(demand bool, served int) {
	w.demand[w.demandIdx] = demand
	w.demandIdx = (w.demandIdx + 1) % len(w.demand)
	if w.demandFill < len(w.demand) {
		w.demandFill++
	}
	w.servedSum += int64(served) - int64(w.served[w.servedIdx])
	w.served[w.servedIdx] = served
	w.servedIdx = (w.servedIdx + 1) % len(w.served)
	if w.servedFill < len(w.served) {
		w.servedFill++
	}
}

// Sustained reports whether the demand ring is full and at least frac of
// its subframes showed demand.
func (w *LoadWindow) Sustained(frac float64) bool {
	if w.demandFill < len(w.demand) {
		return false
	}
	cnt := 0
	for _, d := range w.demand {
		if d {
			cnt++
		}
	}
	return float64(cnt) >= frac*float64(len(w.demand))
}

// Served returns the bits served over the served ring and whether the
// ring is full.
func (w *LoadWindow) Served() (sum int64, full bool) {
	return w.servedSum, w.servedFill == len(w.served)
}

// Reset empties both rings, restarting the decision windows after the
// active carrier set changes.
func (w *LoadWindow) Reset() {
	clear(w.demand)
	clear(w.served)
	w.demandFill, w.servedSum, w.servedFill = 0, 0, 0
}
