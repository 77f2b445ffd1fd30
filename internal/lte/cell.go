package lte

import (
	"math/rand"
	"time"

	"pbecc/internal/netsim"
	"pbecc/internal/phy"
	"pbecc/internal/sim"
)

// HARQ parameters of FDD LTE (§3 of the paper): an erroneous transport
// block is retransmitted eight subframes after the original transmission,
// at most three times. NR cells keep both counts in slots.
const (
	HARQDelaySubframes = 8
	MaxRetransmissions = 3
)

// DefaultPerUserQueueBytes is the default cap on one user's downlink
// queue at a cell, modeling the finite RLC buffer of deployed base
// stations (roughly 250 ms at 50 Mbit/s). Loss-based senders fill it and
// see drops, as on real cells.
const DefaultPerUserQueueBytes = 1_500_000

// ControlGrant is a small allocation made to a user that is exchanging
// control-plane traffic (parameter updates, timers, security) rather than
// data - the population the paper's Figure 7 measures and PBE-CC filters.
type ControlGrant struct {
	RNTI uint16
	RBGs int
}

// ControlSource produces the control-plane grants of each subframe.
// Implementations keep their own state across subframes; package trace
// provides a population calibrated to Figure 7.
type ControlSource interface {
	Tick(subframe int, rng *rand.Rand) []ControlGrant
}

// TBSink receives completed transport blocks from a cell. ok=false marks a
// block lost after exhausting HARQ retransmissions; its packets never
// arrive but the sink must advance its reordering state.
type TBSink interface {
	DeliverTB(cellID int, seq uint64, packets []*netsim.Packet, ok bool)
}

// RAT holds the scheduler constants that differ between radio access
// technologies. NewCell sets LTE's and nr.NewCell sets NR's; everything
// else about a cell is the one scheduler kernel below.
type RAT struct {
	// SlotsPerSubframe is the number of scheduling slots per 1 ms
	// subframe: 1 for LTE, 2^µ for NR. Control grants are issued on
	// subframe boundaries, so the per-ms signaling load is the same on
	// either RAT.
	SlotsPerSubframe int
	// RBGSize is the resource-block-group size P of data grants.
	RBGSize int
	// ControlUnitPRBs is the footprint of one control-grant unit.
	ControlUnitPRBs int
	// RotateOrder rotates the water-fill service order with the slot
	// index, so the capped grant at the band edge moves between users.
	RotateOrder bool
	// CBGBits is the code-block-group size of HARQ; zero means whole
	// transport blocks are acknowledged and retransmitted.
	CBGBits int
	// QueueBytes is the initial PerUserQueueBytes.
	QueueBytes int
}

// Cell is one component carrier: a slot-clocked base station scheduler
// with per-user queues, HARQ, and control-channel emission.
type Cell struct {
	eng *sim.Engine

	ID    int
	NPRB  int
	Table phy.CQITable

	rat        RAT
	slotDur    time.Duration
	control    ControlSource
	background BackgroundSource
	users      []*CellUser
	byRNTI     map[uint16]*CellUser
	monitors   []Monitor

	slot        int
	cursor      int // next free PRB of the slot being scheduled
	pendingRetx map[int][]*transportBlock
	rng         *rand.Rand
	ticker      *sim.Ticker
	pool        *netsim.PacketPool

	// Per-slot scratch, reused across ticks (DESIGN.md section 12): one
	// SubframeReport per cell whose Allocs slice is resliced each slot
	// (monitor consumers copy what they keep), the water-fill inputs, and
	// a transport-block free list. deliveries is the coalesced
	// TB-delivery queue: instead of one event per transport block, the
	// cell schedules a single pre-bound delivery event per slot that
	// drains the queue in transmit order at the next slot boundary.
	rep          *SubframeReport
	blUsers      []*CellUser
	wants        []int
	wf           WaterFiller
	tbFree       []*transportBlock
	deliveries   []tbDelivery
	deliverArmed bool
	deliverFn    func()

	// PerUserQueueBytes caps each user's downlink queue; packets beyond
	// it are dropped at enqueue (drop-tail). Zero means unbounded.
	PerUserQueueBytes int

	// ErrorModel, when non-nil, replaces random transport-block error
	// sampling: it is called per transmission attempt and returns whether
	// the block was received in error (all outstanding code-block groups
	// fail together). Used by tests and the Figure 3 experiment to inject
	// deterministic errors.
	ErrorModel func(rnti uint16, tbSeq uint64, attempt int, bits int, ber float64) bool

	// Counters for evaluation (Figure 6a and others).
	TotalTBs     uint64
	ErrorTBs     uint64
	LostTBs      uint64
	DataPRBs     uint64
	RetxPRBs     uint64
	ControlPRBs  uint64
	FluidPRBs    uint64 // PRBs granted to fluid background users
	QueueDropped uint64
}

// CellUser is one user's attachment to a cell, the handle AttachUser
// returns. Devices keep it per carrier, so the per-packet and per-ms
// reads below touch the user directly, with no RNTI lookup.
type CellUser struct {
	cell *Cell
	rnti uint16
	sink TBSink
	ch   *phy.Channel

	// queue is the user's downlink queue, indexed from qHead (head-index
	// dequeue with amortized compaction, retained capacity).
	queue      []*netsim.Packet
	qHead      int
	headSent   int // bytes of the head packet already carried in earlier TBs
	queuedBits int
	nextTB     uint64

	// Per-slot scratch, read back by the UE's carrier-aggregation
	// manager after the cell ticks.
	lastPRBs       int
	lastServedBits int
}

type transportBlock struct {
	user      *CellUser
	seq       uint64
	rbgs      int
	prbs      int
	bits      int // allocated size (drives the error probability)
	completed []*netsim.Packet
	attempts  int
	mcs       phy.MCS

	// Code-block-group HARQ state: total groups in the original block and
	// the groups still outstanding (failed in every attempt so far).
	// Whole-TB HARQ is the one-group case.
	cbTotal       int
	cbOutstanding int
}

// tbDelivery is one entry of the cell's coalesced delivery queue: the
// transport block's outcome, decoupled from the (recycled) block struct.
// The packets slice transfers to the sink's reorder buffer.
type tbDelivery struct {
	sink TBSink
	seq  uint64
	pkts []*netsim.Packet
	ok   bool
}

// NewCell creates an LTE cell and starts its subframe ticker on the
// engine. control may be nil for a cell without control-plane chatter.
func NewCell(eng *sim.Engine, id, nprb int, table phy.CQITable, control ControlSource) *Cell {
	p := rbgSizeFor(nprb)
	return NewRATCell(eng, id, nprb, table, control, RAT{
		SlotsPerSubframe: 1, RBGSize: p, ControlUnitPRBs: p,
		QueueBytes: DefaultPerUserQueueBytes,
	})
}

// NewRATCell creates a cell of nprb PRBs scheduled with the given RAT
// constants and starts its slot ticker on the engine.
func NewRATCell(eng *sim.Engine, id, nprb int, table phy.CQITable, control ControlSource, rat RAT) *Cell {
	c := &Cell{
		eng:               eng,
		ID:                id,
		NPRB:              nprb,
		Table:             table,
		rat:               rat,
		slotDur:           time.Millisecond / time.Duration(rat.SlotsPerSubframe),
		control:           control,
		byRNTI:            make(map[uint16]*CellUser),
		pendingRetx:       make(map[int][]*transportBlock),
		rng:               eng.Rand(),
		pool:              netsim.PoolOf(eng),
		rep:               &SubframeReport{CellID: id, NPRB: nprb},
		PerUserQueueBytes: rat.QueueBytes,
	}
	c.deliverFn = c.deliverPending
	c.ticker = eng.Every(c.slotDur, c.tick)
	return c
}

// rbgSizeFor returns the RBG size P of 3GPP TS 36.213 Table 7.1.6.1-1.
func rbgSizeFor(nprb int) int {
	switch {
	case nprb <= 10:
		return 1
	case nprb <= 26:
		return 2
	case nprb <= 63:
		return 3
	default:
		return 4
	}
}

// Stop halts the cell's slot ticker.
func (c *Cell) Stop() { c.ticker.Stop() }

// Subframe returns the index of the last processed scheduling slot: the
// subframe on an LTE cell, the NR slot on an NR cell.
func (c *Cell) Subframe() int { return c.slot }

// SlotDuration returns the cell's scheduling interval.
func (c *Cell) SlotDuration() time.Duration { return c.slotDur }

// SlotsPerSubframe returns the scheduling slots per 1 ms subframe.
func (c *Cell) SlotsPerSubframe() int { return c.rat.SlotsPerSubframe }

// AttachMonitor registers a control-channel monitor; monitors run in
// registration order after each slot is scheduled. The report's Subframe
// field carries the slot index.
func (c *Cell) AttachMonitor(m Monitor) { c.monitors = append(c.monitors, m) }

// AttachUser connects a transport-block sink to this cell under the given
// RNTI with the given radio channel and returns the user's handle.
func (c *Cell) AttachUser(sink TBSink, rnti uint16, ch *phy.Channel) *CellUser {
	if _, dup := c.byRNTI[rnti]; dup {
		panic("lte: duplicate RNTI on cell")
	}
	u := &CellUser{cell: c, rnti: rnti, sink: sink, ch: ch}
	c.users = append(c.users, u)
	c.byRNTI[rnti] = u
	return u
}

// Enqueue adds a downlink packet to the queue of the user attached under
// rnti; see CellUser.Enqueue. An unattached RNTI is refused, and the
// packet released, like a full queue.
func (c *Cell) Enqueue(rnti uint16, p *netsim.Packet) bool {
	u, ok := c.byRNTI[rnti]
	if !ok {
		c.pool.Release(p)
		return false
	}
	return u.Enqueue(p)
}

// Enqueue adds a downlink packet to the user's queue at its cell. It
// reports false if the queue is full. The packet is then dropped -
// callers never retry a refused packet - so the cell releases it as its
// last owner.
func (u *CellUser) Enqueue(p *netsim.Packet) bool {
	c := u.cell
	if c.PerUserQueueBytes > 0 && u.queuedBits/8+p.Size > c.PerUserQueueBytes {
		c.QueueDropped++
		c.pool.Release(p)
		return false
	}
	u.queue = append(u.queue, p)
	u.queuedBits += p.Size * 8
	return true
}

// QueueBits returns the bits waiting in the user's queue.
func (u *CellUser) QueueBits() int { return u.queuedBits }

// Rate returns the user's current physical rate in bits per PRB per slot.
func (u *CellUser) Rate() float64 { return u.ch.MCS().BitsPerPRB() }

// RateBps returns the rate the user would see alone on the whole
// carrier, in bits per second.
func (u *CellUser) RateBps() float64 {
	return u.Rate() * float64(u.cell.NPRB) * (1000 * float64(u.cell.rat.SlotsPerSubframe))
}

// LastPRBs returns the PRBs granted to the user in the cell's last slot.
func (u *CellUser) LastPRBs() int { return u.lastPRBs }

// LastServedBits returns the payload bits served to the user in the
// cell's last slot.
func (u *CellUser) LastServedBits() int { return u.lastServedBits }

// rbgsLeft counts the RBGs at or after the cursor, the last one possibly
// partial.
func (c *Cell) rbgsLeft() int {
	return (c.NPRB - c.cursor + c.rat.RBGSize - 1) / c.rat.RBGSize
}

// span returns the PRBs of an n-RBG grant at the cursor: n full RBGs, or
// fewer PRBs when the grant reaches the band edge.
func (c *Cell) span(n int) int { return min(n*c.rat.RBGSize, c.NPRB-c.cursor) }

// place publishes a grant at the cursor and advances the cursor past it.
func (c *Cell) place(a Alloc) {
	a.FirstRBG = c.cursor / c.rat.RBGSize
	c.rep.Allocs = append(c.rep.Allocs, a)
	c.cursor += a.PRBs
}

// tick runs one slot: advance channels, serve control users, serve HARQ
// retransmissions, water-fill the remaining RBGs over backlogged users,
// sample transport-block errors, and publish the control channel.
//
// The cursor tracks PRBs rather than RBGs: control grants occupy
// ControlUnitPRBs per unit, while HARQ and data grants are RBG-granular
// over the remaining PRBs (the last grant absorbs the partial RBG at the
// band edge). On LTE the control unit is one RBG, so the cursor stays
// RBG-aligned.
func (c *Cell) tick() {
	now := c.eng.Now()
	c.slot++
	for _, u := range c.users {
		u.ch.Step(now, c.slotDur)
		u.lastPRBs = 0
		u.lastServedBits = 0
	}

	// The report struct and its Allocs slice are reused across slots;
	// monitor consumers must copy whatever they keep past the callback
	// (core.Monitor and faults.WrapFeed both do).
	rep := c.rep
	rep.Subframe = c.slot
	rep.Allocs = rep.Allocs[:0]
	c.cursor = 0
	p := c.rat.RBGSize

	// 1. Control-plane users occupy a few PRBs first, on subframe
	// boundaries so the per-ms signaling load matches the LTE calibration
	// of package trace at any numerology.
	if spf := c.rat.SlotsPerSubframe; c.control != nil && (c.slot-1)%spf == 0 {
		mcs := phy.MCS{CQI: 5, Table: c.Table, Streams: 1}
		for _, g := range c.control.Tick(1+(c.slot-1)/spf, c.rng) {
			prbs := min(g.RBGs*c.rat.ControlUnitPRBs, c.NPRB-c.cursor)
			if prbs == 0 {
				break
			}
			c.ControlPRBs += uint64(prbs)
			c.place(Alloc{
				RNTI: g.RNTI, NumRBGs: (prbs + p - 1) / p, PRBs: prbs,
				MCS: mcs, TBBits: int(float64(prbs) * mcs.BitsPerPRB()),
				NDI: true, Control: true,
			})
		}
	}

	// 2. HARQ retransmissions scheduled for this slot.
	if due := c.pendingRetx[c.slot]; len(due) > 0 {
		delete(c.pendingRetx, c.slot)
		for i, tb := range due {
			if tb.rbgs > c.rbgsLeft() {
				// Control region exhausted: postpone the rest by one slot.
				c.pendingRetx[c.slot+1] = append(c.pendingRetx[c.slot+1], due[i:]...)
				break
			}
			prbs := c.span(tb.rbgs)
			c.RetxPRBs += uint64(prbs)
			tb.user.lastPRBs += prbs
			c.place(Alloc{RNTI: tb.user.rnti, NumRBGs: tb.rbgs, PRBs: prbs, MCS: tb.mcs, TBBits: tb.bits})
			c.transmit(tb)
		}
	}

	// 3. Water-fill the remaining RBGs over backlogged data users. Fluid
	// background users (virtual aggregate sessions, see SetBackground)
	// join the same water-fill after the packet users, so both tiers
	// share capacity under one fairness policy.
	blUsers := c.blUsers[:0]
	wants := c.wants[:0]
	off := 0
	if c.rat.RotateOrder {
		off = c.slot
	}
	for k := range c.users {
		u := c.users[(k+off)%len(c.users)]
		if u.queuedBits <= 0 || !u.ch.MCS().Valid() {
			continue
		}
		perRBG := u.ch.MCS().BitsPerPRB() * float64(p)
		blUsers = append(blUsers, u)
		wants = append(wants, int(float64(u.queuedBits)/perRBG)+1)
	}
	var bg []BackgroundDemand
	if c.background != nil {
		bg = c.background.Demand(now)
		for i := range bg {
			perRBG := bg[i].MCS.BitsPerPRB() * float64(p)
			wants = append(wants, int(float64(bg[i].Bits)/perRBG)+1)
		}
	}
	c.blUsers, c.wants = blUsers, wants
	// Grants never exceed the RBGs left, so every granted span has PRBs.
	grants := c.wf.Fill(wants, c.rbgsLeft(), c.slot)
	for i, u := range blUsers {
		n := grants[i]
		if n == 0 {
			continue
		}
		prbs := c.span(n)
		mcs := u.ch.MCS()
		bits := int(float64(prbs) * mcs.BitsPerPRB())
		tb := c.buildTB(u, n, prbs, bits, mcs)
		c.DataPRBs += uint64(prbs)
		u.lastPRBs += prbs
		c.place(Alloc{RNTI: u.rnti, NumRBGs: n, PRBs: prbs, MCS: mcs, TBBits: bits, NDI: true})
		c.transmit(tb)
	}
	for i := range bg {
		n := grants[len(blUsers)+i]
		if n == 0 {
			continue
		}
		prbs := c.span(n)
		bits := int(float64(prbs) * bg[i].MCS.BitsPerPRB())
		c.FluidPRBs += uint64(prbs)
		c.place(Alloc{RNTI: bg[i].RNTI, NumRBGs: n, PRBs: prbs, MCS: bg[i].MCS, TBBits: bits, NDI: true})
		c.background.Serve(i, bits)
	}

	for _, m := range c.monitors {
		m(rep)
	}
}

// buildTB drains up to the allocated bits from the user's queue into a new
// transport block.
func (c *Cell) buildTB(u *CellUser, rbgs, prbs, bits int, mcs phy.MCS) *transportBlock {
	var tb *transportBlock
	if n := len(c.tbFree); n > 0 {
		tb = c.tbFree[n-1]
		c.tbFree[n-1] = nil
		c.tbFree = c.tbFree[:n-1]
	} else {
		tb = &transportBlock{}
	}
	tb.user, tb.seq, tb.rbgs, tb.prbs, tb.bits, tb.mcs = u, u.nextTB, rbgs, prbs, bits, mcs
	u.nextTB++
	capBytes := bits / 8
	served := 0
	for capBytes > 0 && u.qHead < len(u.queue) {
		head := u.queue[u.qHead]
		rem := head.Size - u.headSent
		take := rem
		if take > capBytes {
			take = capBytes
		}
		u.headSent += take
		capBytes -= take
		served += take
		if u.headSent == head.Size {
			tb.completed = append(tb.completed, head)
			u.queue[u.qHead] = nil
			u.qHead++
			u.headSent = 0
		}
	}
	if u.qHead == len(u.queue) {
		u.queue = u.queue[:0]
		u.qHead = 0
	} else if u.qHead > 32 && u.qHead*2 >= len(u.queue) {
		n := copy(u.queue, u.queue[u.qHead:])
		for i := n; i < len(u.queue); i++ {
			u.queue[i] = nil
		}
		u.queue = u.queue[:n]
		u.qHead = 0
	}
	u.queuedBits -= served * 8
	u.lastServedBits += served * 8
	return tb
}

// transmit samples the error process of one attempt per outstanding
// code-block group (one group under whole-TB HARQ) and schedules either
// in-order delivery at the next slot boundary or a HARQ retransmission
// HARQDelaySubframes slots later. Under code-block-group HARQ the
// retransmission carries only the failed groups, in a proportionally
// smaller grant. After the maximum number of retransmissions the block is
// declared lost and the sink's reordering state advances without its
// packets.
func (c *Cell) transmit(tb *transportBlock) {
	c.TotalTBs++
	cbg := c.rat.CBGBits
	if tb.attempts == 0 {
		tb.cbTotal = 1
		if cbg > 0 {
			tb.cbTotal = max(1, (tb.bits+cbg-1)/cbg)
		}
		tb.cbOutstanding = tb.cbTotal
	}
	failed := 0
	if c.ErrorModel != nil {
		if c.ErrorModel(tb.user.rnti, tb.seq, tb.attempts, tb.bits, tb.user.ch.BER()) {
			failed = tb.cbOutstanding
		}
	} else {
		groupBits := tb.bits
		if cbg > 0 {
			groupBits = cbg
		}
		pcb := phy.TBErrorRate(tb.user.ch.BER(), groupBits)
		for i := 0; i < tb.cbOutstanding; i++ {
			if c.rng.Float64() < pcb {
				failed++
			}
		}
	}
	if failed == 0 {
		c.queueDelivery(tb, true)
		return
	}
	c.ErrorTBs++
	tb.attempts++
	if tb.attempts > MaxRetransmissions {
		c.LostTBs++
		c.queueDelivery(tb, false)
		return
	}
	if cbg > 0 {
		tb.cbOutstanding = failed
		tb.rbgs = max(1, (tb.rbgs*failed+tb.cbTotal-1)/tb.cbTotal)
		tb.bits = failed * cbg
	}
	retxAt := c.slot + HARQDelaySubframes
	c.pendingRetx[retxAt] = append(c.pendingRetx[retxAt], tb)
}

// queueDelivery appends the block's outcome to the coalesced delivery
// queue and recycles the block struct (its packets now belong to the
// queue entry, then to the sink's reorder buffer). The queue is drained by
// one pre-bound event at the next slot boundary - scheduled on the first
// delivery of the tick, so a slot costs one delivery event no matter how
// many blocks it carries. Order within the event equals transmit order,
// exactly the order the per-block events fired in before coalescing; the
// queue is only appended to during tick, never while draining.
func (c *Cell) queueDelivery(tb *transportBlock, ok bool) {
	c.deliveries = append(c.deliveries, tbDelivery{sink: tb.user.sink, seq: tb.seq, pkts: tb.completed, ok: ok})
	if !c.deliverArmed {
		c.deliverArmed = true
		c.eng.Schedule(c.slotDur, c.deliverFn)
	}
	*tb = transportBlock{}
	c.tbFree = append(c.tbFree, tb)
}

// deliverPending hands every queued transport-block outcome to its sink.
func (c *Cell) deliverPending() {
	c.deliverArmed = false
	ds := c.deliveries
	for i := range ds {
		d := &ds[i]
		d.sink.DeliverTB(c.ID, d.seq, d.pkts, d.ok)
		*d = tbDelivery{}
	}
	c.deliveries = ds[:0]
}

// WaterFill distributes capacity RBGs over users with the given demands,
// equalizing shares: users wanting less than the fair share are satisfied
// in full and the surplus is redistributed. Leftover odd RBGs rotate with
// the subframe (or NR slot) index so no user position is systematically
// favored. The NR scheduler in internal/nr shares this policy.
//
// WaterFill allocates fresh result storage per call; schedulers on the
// per-subframe hot path hold a WaterFiller and use Fill, which reuses it.
func WaterFill(wants []int, capacity, rotate int) []int {
	var f WaterFiller
	return f.Fill(wants, capacity, rotate)
}

// WaterFiller is reusable scratch for WaterFill's policy: Fill returns a
// grants slice that stays valid until the next Fill call on the same
// WaterFiller. The zero value is ready to use.
type WaterFiller struct {
	grants []int
	unsat  []int
}

// Fill is WaterFill with retained storage; see WaterFill for the policy.
func (f *WaterFiller) Fill(wants []int, capacity, rotate int) []int {
	if cap(f.grants) < len(wants) {
		f.grants = make([]int, len(wants))
		f.unsat = make([]int, 0, len(wants))
	}
	grants := f.grants[:len(wants)]
	for i := range grants {
		grants[i] = 0
	}
	unsat := f.unsat[:0]
	for i, w := range wants {
		if w > 0 {
			unsat = append(unsat, i)
		}
	}
	f.unsat = unsat
	for capacity > 0 && len(unsat) > 0 {
		share := capacity / len(unsat)
		if share == 0 {
			// Fewer RBGs than users: hand out one each, rotating.
			off := rotate % len(unsat)
			for k := 0; k < capacity; k++ {
				grants[unsat[(off+k)%len(unsat)]]++
			}
			capacity = 0
			break
		}
		progress := false
		next := unsat[:0]
		for _, i := range unsat {
			need := wants[i] - grants[i]
			if need <= share {
				grants[i] = wants[i]
				capacity -= need
				progress = true
			} else {
				next = append(next, i)
			}
		}
		unsat = next
		if !progress {
			// Everyone needs more than the share: grant the share and
			// rotate the remainder.
			for _, i := range unsat {
				grants[i] += share
				capacity -= share
			}
			off := rotate % len(unsat)
			for k := 0; k < capacity; k++ {
				grants[unsat[(off+k)%len(unsat)]]++
			}
			capacity = 0
			break
		}
	}
	return grants
}
