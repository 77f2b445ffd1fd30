package nr

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"pbecc/internal/lte"
	"pbecc/internal/netsim"
	"pbecc/internal/phy"
	"pbecc/internal/sim"
	"pbecc/internal/trace"
)

// fluidStub is a fluid background source with a leaky backlog: demand
// arrives at a fixed rate per call and drains by what the cell serves, so
// its grants vary with the packet users' load.
type fluidStub struct {
	arrive, backlog int
	mcs             phy.MCS
	buf             []lte.BackgroundDemand
}

func (f *fluidStub) Demand(now time.Duration) []lte.BackgroundDemand {
	f.backlog += f.arrive
	f.buf = append(f.buf[:0], lte.BackgroundDemand{RNTI: 900, MCS: f.mcs, Bits: f.backlog})
	return f.buf
}

func (f *fluidStub) Serve(i int, bits int) {
	if f.backlog -= bits; f.backlog < 0 {
		f.backlog = 0
	}
}

// tbRecorder is a transport-block sink that writes each delivery's
// (cell, seq, ok, packet count) into the fingerprint and releases the
// packets, as a receiving UE would.
type tbRecorder struct {
	h    hash.Hash64
	pool *netsim.PacketPool
}

func (r *tbRecorder) DeliverTB(cellID int, seq uint64, pkts []*netsim.Packet, ok bool) {
	fmt.Fprintf(r.h, "tb %d %d %v %d\n", cellID, seq, ok, len(pkts))
	r.pool.ReleaseAll(pkts)
}

// fingerprintLTE drives one LTE cell with trace.Busy() control traffic, a
// fluid background source and users spread over RSSIs weak enough for
// HARQ errors, and hashes every report and every in-order packet release.
// A non-nil errs replaces the random error process.
func fingerprintLTE(eng *sim.Engine, h hash.Hash64, nprb, users int, errs func(uint16, uint64, int, int, float64) bool) {
	cell := lte.NewCell(eng, 1, nprb, phy.Table64QAM, trace.Busy())
	cell.ErrorModel = errs
	cell.SetBackground(&fluidStub{arrive: 20000, mcs: phy.MCS{CQI: 9, Table: phy.Table64QAM, Streams: 1}})
	cell.AttachMonitor(func(rep *lte.SubframeReport) { fmt.Fprintf(h, "%+v\n", *rep) })
	fadeRNG := rand.New(rand.NewSource(11))
	for i := 0; i < users; i++ {
		i := i
		ue := lte.NewUE(eng, i+1, uint16(61+i))
		fading := phy.NewFading(3, 20*time.Millisecond, fadeRNG)
		ue.AddCell(cell, phy.NewStaticChannel(-94-3*float64(i), cell.Table, fading))
		ue.SetCarrierAggregation(false)
		ue.SetDefaultHandler(netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) {
			fmt.Fprintf(h, "rx %v %d %d %d\n", now, i, p.FlowID, p.Seq)
			netsim.PoolOf(eng).Release(p)
		}))
		ue.Start()
		netsim.NewCrossTraffic(eng, ue, float64(8+6*i)*1e6, i+1).Start()
	}
}

// fingerprintNR drives one NR cell with trace.Busy() control traffic on
// subframe boundaries, a fluid background source and weak users whose
// errors exercise code-block-group HARQ, and hashes every report and
// every transport-block delivery.
func fingerprintNR(eng *sim.Engine, h hash.Hash64, mu, bw int) {
	cell := NewCell(eng, Config{ID: 101, Mu: mu, BandwidthMHz: bw, Control: trace.Busy()})
	cell.SetBackground(&fluidStub{arrive: 60000, mcs: phy.MCS{CQI: 11, Table: phy.Table256QAM, Streams: 1}})
	cell.AttachMonitor(func(rep *lte.SubframeReport) { fmt.Fprintf(h, "%+v\n", *rep) })
	rec := &tbRecorder{h: h, pool: netsim.PoolOf(eng)}
	fadeRNG := rand.New(rand.NewSource(13))
	for i := 0; i < 4; i++ {
		rnti := uint16(61 + i)
		fading := phy.NewFading(3, 20*time.Millisecond, fadeRNG)
		cu := cell.AttachUser(rec, rnti, phy.NewStaticChannel(-97-2*float64(i), cell.Table, fading))
		enq := netsim.HandlerFunc(func(now time.Duration, p *netsim.Packet) { cu.Enqueue(p) })
		netsim.NewCrossTraffic(eng, enq, float64(60+60*i)*1e6, i+1).Start()
	}
}

// burstErrors fails every 23rd transport block on every attempt, and the
// first two attempts of every block sent in subframes 0 and 8 of each
// 40 ms window, so the fingerprint covers HARQ exhaustion and
// retransmissions that no longer fit behind the control grants.
func burstErrors(eng *sim.Engine) func(uint16, uint64, int, int, float64) bool {
	return func(rnti uint16, seq uint64, attempt, bits int, ber float64) bool {
		sf := eng.Now() / time.Millisecond % 40
		return seq%23 == 7 || (sf == 0 || sf == 8) && attempt < 2
	}
}

// TestScheduleFingerprint pins each RAT's schedule bit for bit: grant
// order and sizes, band-edge RBGs, control cadence, HARQ timing, error
// sampling order and delivery order all feed the hash, so any change to
// the scheduler's behaviour changes it. A deliberate behaviour change
// must update the constants and say why.
func TestScheduleFingerprint(t *testing.T) {
	cases := []struct {
		name string
		run  func(eng *sim.Engine, h hash.Hash64)
		dur  time.Duration
		want uint64
	}{
		{"lte-100prb-busy-bg", func(eng *sim.Engine, h hash.Hash64) { fingerprintLTE(eng, h, 100, 5, nil) }, 600 * time.Millisecond, 0x7cd2f4d6279f63e2},
		{"lte-50prb-partial-rbg", func(eng *sim.Engine, h hash.Hash64) { fingerprintLTE(eng, h, 50, 3, burstErrors(eng)) }, 600 * time.Millisecond, 0x74b22a8fa63b89bd},
		{"nr-mu1-100mhz", func(eng *sim.Engine, h hash.Hash64) { fingerprintNR(eng, h, 1, 100) }, 300 * time.Millisecond, 0x1205d35cf7cc80ef},
		{"nr-mu3-100mhz", func(eng *sim.Engine, h hash.Hash64) { fingerprintNR(eng, h, 3, 100) }, 150 * time.Millisecond, 0x8baa4ba614076485},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.New(21)
			h := fnv.New64a()
			c.run(eng, h)
			eng.RunUntil(c.dur)
			if got := h.Sum64(); got != c.want {
				t.Errorf("schedule fingerprint = %#x, want %#x", got, c.want)
			}
		})
	}
}
