package main

import (
	"math/rand"
	"runtime"
	"time"

	"pbecc/internal/cc"
	"pbecc/internal/cc/bbr"
	"pbecc/internal/core"
	"pbecc/internal/fluid"
	"pbecc/internal/harness"
	"pbecc/internal/lte"
	"pbecc/internal/netsim"
	"pbecc/internal/nr"
	"pbecc/internal/phy"
	"pbecc/internal/sim"
	"pbecc/internal/trace"
)

// The layer microbenchmarks time one layer's public calls on inputs sized from
// the workloads, outside any scenario: each reports ns/op and allocs/op.
// They run with the obs layer off, as an untraced run does.

// cellUsers is the per-cell load of the metro workload.
const cellUsers = harness.MetroUEsPerCell

// opCost is one microbenchmark's measurement.
type opCost struct {
	ns, allocs float64
}

// timeOps runs fn, which performs ops operations, and returns the cost
// per operation.
func timeOps(log *spanLog, name string, fn func() int) opCost {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	end := log.begin("micro", name)
	start := time.Now()
	ops := fn()
	elapsed := time.Since(start)
	end()
	runtime.ReadMemStats(&m1)
	if ops <= 0 {
		return opCost{}
	}
	return opCost{
		ns:     float64(elapsed.Nanoseconds()) / float64(ops),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
	}
}

// runMicro runs every layer microbenchmark; scale divides the amount of work
// (1 for a measured run, larger for the self-test).
func runMicro(seed int64, par, scale int, log *spanLog) map[string]float64 {
	out := map[string]float64{}
	put := func(prefix string, c opCost) {
		out[prefix+"_ns"] = c.ns
		out[prefix+"_allocs"] = c.allocs
	}
	put("sim.schedule", timeOps(log, "sim.Engine.Schedule", func() int { return driveHeap(seed, 2_000_000/scale) }))
	put("cluster.window", timeOps(log, "sim.Cluster.RunUntil", func() int { return driveCluster(seed, par, 2000/scale) }))
	put("lte.subframe_tick", timeOps(log, "lte.Cell.tick", func() int {
		n, _ := driveLTECell(seed, 2000/scale, false)
		return n
	}))
	put("nr.slot_tick", timeOps(log, "nr.Cell.tick", func() int { return driveNRCell(seed, 2000/scale) }))
	_, reports := driveLTECell(seed, 2000/scale, true)
	var mon *core.Monitor
	put("core.on_subframe", timeOps(log, "core.Monitor.OnSubframe", func() int {
		var n int
		n, mon = driveMonitor(reports)
		return n
	}))
	put("core.feedback", timeOps(log, "core.Client.Feedback", func() int { return driveFeedback(mon, 500_000/scale) }))
	put("netsim.hop", timeOps(log, "netsim.Link.Send", func() int { return driveLink(seed, time.Second/time.Duration(scale)) }))
	put("cc.packet", timeOps(log, "cc.Sender+Receiver", func() int { return driveTransport(seed, 2*time.Second/time.Duration(scale)) }))
	chunks := drawFluid(seed, par)
	c := timeOps(log, "fluid.ModeledChunk.Advance", func() int { return driveFluid(chunks, 25/scale+1) })
	out["fluid.advance_ns_per_session"], out["fluid.advance_allocs"] = c.ns, c.allocs
	return out
}

// driveHeap keeps an engine's heap at 1024 pending events - metro's
// sim.heap_len_max is about a thousand - with self-rescheduling chains at
// random delays, and returns how many events it scheduled and ran.
func driveHeap(seed int64, ops int) int {
	const width = 1024
	eng := sim.New(seed)
	rng := rand.New(rand.NewSource(seed))
	done := 0
	var fire func()
	fire = func() {
		if done < ops {
			done++
			eng.Schedule(time.Duration(1+rng.Intn(1000))*time.Microsecond, fire)
		}
	}
	for i := 0; i < width; i++ {
		eng.Schedule(time.Duration(1+rng.Intn(1000))*time.Microsecond, fire)
	}
	eng.Run()
	return done
}

// driveCluster runs windows of a 16-shard cluster with par workers: every
// shard ticks each millisecond and sends one cross-shard event per tick,
// so each window merges mailboxes as the metro's barrier does.
func driveCluster(seed int64, par, windows int) int {
	const lookahead = 5 * time.Millisecond
	c := sim.NewCluster(seed)
	var shards []*sim.Shard
	for i := 0; i < 16; i++ {
		shards = append(shards, c.AddShard())
	}
	c.SetWorkers(par)
	c.DeclareLookahead(lookahead)
	for i, s := range shards {
		s, dst := s, shards[(i+1)%len(shards)]
		s.Every(time.Millisecond, func() { s.Send(dst, lookahead, func() {}) })
	}
	c.RunUntil(time.Duration(windows) * lookahead)
	return windows
}

// saturate attaches a fixed-rate source to each handler.
func saturate(eng *sim.Engine, dsts []netsim.Handler, rateBps float64) {
	for i, d := range dsts {
		netsim.NewCrossTraffic(eng, d, rateBps, i+1).Start()
	}
}

// driveLTECell runs a 100-PRB LTE cell with 16 users offered 15 Mbit/s
// each, more than the cell carries, for the given number of subframes,
// and returns the subframe count; with record set it also returns a copy
// of every control report, the monitor microbenchmark's input.
func driveLTECell(seed int64, subframes int, record bool) (int, []*lte.SubframeReport) {
	eng := sim.New(seed)
	cell := lte.NewCell(eng, 1, 100, phy.Table64QAM, trace.Idle())
	var reports []*lte.SubframeReport
	if record {
		cell.AttachMonitor(func(rep *lte.SubframeReport) {
			cp := *rep
			cp.Allocs = append([]lte.Alloc(nil), rep.Allocs...)
			reports = append(reports, &cp)
		})
	}
	var ues []netsim.Handler
	for u := 0; u < cellUsers; u++ {
		ue := lte.NewUE(eng, u+1, uint16(61+u))
		ue.AddCell(cell, phy.NewStaticChannel(-80-float64(u%13), cell.Table, nil))
		ue.SetDefaultHandler(&netsim.Sink{Pool: netsim.PoolOf(eng)})
		ue.Start()
		ues = append(ues, ue)
	}
	saturate(eng, ues, 15e6)
	eng.RunUntil(time.Duration(subframes) * time.Millisecond)
	return cell.Subframe(), reports
}

// driveNRCell runs a µ=1 100 MHz NR cell (the metro's NR carrier) with
// 16 users offered 50 Mbit/s each, more than the cell carries, for
// subframes milliseconds, and returns the slot count.
func driveNRCell(seed int64, subframes int) int {
	eng := sim.New(seed)
	cell := nr.NewCell(eng, nr.Config{ID: 101, Mu: 1, BandwidthMHz: 100, Control: trace.Idle()})
	var ues []netsim.Handler
	for u := 0; u < cellUsers; u++ {
		ue := nr.NewUE(eng, u+1, uint16(61+u))
		ue.AddCell(cell, phy.NewStaticChannel(-80-float64(u%13), cell.Table, nil))
		ue.SetDefaultHandler(&netsim.Sink{Pool: netsim.PoolOf(eng)})
		ues = append(ues, ue)
	}
	saturate(eng, ues, 50e6)
	eng.RunUntil(time.Duration(subframes) * time.Millisecond)
	return cell.Slot()
}

// driveMonitor feeds fresh PBE monitors, attached to the LTE
// microbenchmark's cell as its first user, every recorded 16-user
// subframe report (ten replays) and returns the last monitor.
func driveMonitor(reports []*lte.SubframeReport) (int, *core.Monitor) {
	const replays = 10
	ch := phy.NewStaticChannel(-80, phy.Table64QAM, nil)
	var mon *core.Monitor
	for r := 0; r < replays; r++ {
		mon = core.NewMonitor(61)
		mon.AttachCell(core.CellInfo{ID: 1, NPRB: 100,
			Rate: func() float64 { return ch.MCS().BitsPerPRB() },
			BER:  func() float64 { return ch.BER() }})
		for _, rep := range reports {
			mon.OnSubframe(rep)
		}
	}
	return replays * len(reports), mon
}

// driveFeedback asks the client for its per-packet feedback at 100 us
// spacing, as a receiver does on every data packet.
func driveFeedback(mon *core.Monitor, ops int) int {
	c := core.NewClient(mon)
	var sink float64
	for i := 0; i < ops; i++ {
		now := time.Duration(i) * 100 * time.Microsecond
		rate, _ := c.Feedback(now, 20*time.Millisecond+time.Duration(i%7)*time.Millisecond, netsim.MSS)
		sink += rate
	}
	if sink < 0 {
		panic("negative feedback")
	}
	return ops
}

// driveLink sends 500 Mbit/s of packets through one 1 Gbit/s link into a
// sink and returns the number delivered.
func driveLink(seed int64, d time.Duration) int {
	eng := sim.New(seed)
	sink := &netsim.Sink{Pool: netsim.PoolOf(eng)}
	link := netsim.NewLink(eng, 1e9, time.Millisecond, 0, sink)
	netsim.NewCrossTraffic(eng, link, 500e6, 1).Start()
	eng.RunUntil(d)
	return int(sink.Count)
}

// driveTransport runs one BBR flow over a 100 Mbit/s, 20 ms-RTT
// bottleneck - sender -> link -> receiver -> ack link -> sender - and
// returns the number of data packets received.
func driveTransport(seed int64, d time.Duration) int {
	eng := sim.New(seed)
	ackLink := netsim.NewLink(eng, 1e9, 10*time.Millisecond, 0, nil)
	recv := cc.NewReceiver(eng, 1, ackLink)
	fwd := netsim.NewLink(eng, 100e6, 10*time.Millisecond, 256*netsim.MSS, recv)
	snd := cc.NewSender(eng, 1, fwd, bbr.New())
	ackLink.SetDestination(snd)
	snd.Start()
	eng.RunUntil(d)
	return int(recv.Received)
}

// drawFluid draws the nation's modelled population (65,536 cells x 16
// sessions) split into par chunks.
func drawFluid(seed int64, par int) []*fluid.ModeledChunk {
	m := fluid.DrawModeled(harness.NationModeledCells, harness.NationModeledUsersPerCell,
		rand.New(rand.NewSource(seed)), fluid.DefaultWindow)
	return m.Chunks(par)
}

// driveFluid advances every chunk through windows envelope windows and
// returns the session-windows advanced.
func driveFluid(chunks []*fluid.ModeledChunk, windows int) int {
	for w := 1; w <= windows; w++ {
		for _, ch := range chunks {
			ch.Advance(time.Duration(w) * fluid.DefaultWindow)
		}
	}
	return windows * harness.NationModeledCells * harness.NationModeledUsersPerCell
}
