// Command perfbench is the repository's benchmark: it runs one named
// workload through the simulator's public entry points (harness.
// BuildScenario + harness.Run, and sweep.Run), checks the outputs, and
// prints every end-to-end metric (-trace 0) or every per-layer metric
// (-trace 1) by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go build -o perfbench . && ./perfbench -workload metro -seed 1 -seconds 25 -trace 0
//
// See README.md for the workloads, the metrics and what each layer metric
// is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric names one reported figure and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. The first six are host costs, the rest modelled outcomes
// that repeat exactly for a seed.
var endToEnd = []metric{
	{"wall_s", "s"}, {"cpu_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"},
	{"allocs_m", "M"}, {"alloc_mb", "MB"},
	{"pbe_tput_mbps", "Mbit/s"}, {"pbe_p95_delay_ms", "ms"},
	{"pbe_err_pct", "%"}, {"tput_vs_bbr", "ratio"}, {"p95_gain_vs_bbr", "ratio"},
}

// perLayer are the traced run's metrics: work counts from the program's
// obs counters, microbenchmark timings of each layer's public calls, and CPU
// profile shares by layer.
var perLayer = []metric{
	{"sim.events_per_sim_s", "1/sim_s"}, {"sim.cancel_ratio", "ratio"}, {"sim.event_reuse_ratio", "ratio"},
	{"sim.heap_len_max", "count"}, {"sim.schedule_ns", "ns"}, {"sim.schedule_allocs", "allocs/op"},
	{"sim.self_share", "share"},
	{"cluster.window_barriers", "count"}, {"cluster.cross_events_per_sim_s", "1/sim_s"},
	{"cluster.idle_window_ratio", "ratio"}, {"cluster.window_ns", "ns"}, {"cluster.window_allocs", "allocs/op"},
	{"cluster.speedup", "ratio"}, {"cluster.parallel_eff", "ratio"},
	{"lte.subframe_tick_ns", "ns"}, {"lte.subframe_tick_allocs", "allocs/op"},
	{"nr.slot_tick_ns", "ns"}, {"nr.slot_tick_allocs", "allocs/op"},
	{"lte.self_share", "share"}, {"nr.self_share", "share"},
	{"core.feedback_ns", "ns"}, {"core.feedback_allocs", "allocs/op"},
	{"core.on_subframe_ns", "ns"}, {"core.on_subframe_allocs", "allocs/op"},
	{"core.probe_samples_per_sim_s", "1/sim_s"}, {"core.self_share", "share"},
	{"phy.self_share", "share"},
	{"cc.acks_per_sim_s", "1/sim_s"}, {"cc.loss_ratio", "ratio"}, {"cc.rate_decisions_per_sim_s", "1/sim_s"},
	{"cc.packet_ns", "ns"}, {"cc.packet_allocs", "allocs/op"}, {"cc.self_share", "share"},
	{"cc.pbe_loss_pct", "%"},
	{"netsim.delivered_per_sim_s", "1/sim_s"}, {"netsim.drop_ratio", "ratio"},
	{"netsim.queue_bytes_max", "bytes"}, {"netsim.packet_reuse_ratio", "ratio"},
	{"netsim.hop_ns", "ns"}, {"netsim.hop_allocs", "allocs/op"}, {"netsim.self_share", "share"},
	{"fluid.envelope_updates_per_sim_s", "1/sim_s"}, {"fluid.session_windows_per_sim_s", "1/sim_s"},
	{"fluid.advance_ns_per_session", "ns"}, {"fluid.advance_allocs", "allocs/op"}, {"fluid.self_share", "share"},
	{"rtc.frames_sent_per_sim_s", "1/sim_s"}, {"rtc.shed_ratio", "ratio"}, {"rtc.self_share", "share"},
	{"obs.self_share", "share"}, {"obs.setup_alloc_mb", "MB"},
	{"sweep.job_p50_ms", "ms"}, {"sweep.job_p90_ms", "ms"}, {"sweep.self_share", "share"},
	{"harness.build_ms", "ms"}, {"harness.self_share", "share"}, {"stats.self_share", "share"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_share", "share"}, {"runtime.self_share", "share"},
	{"trace.overhead_s", "s"}, {"host.cores", "count"}, {"host.go_minor", "count"},
}

// shareLayers are the layers whose CPU-profile share is reported.
var shareLayers = []string{"sim", "lte", "nr", "core", "phy", "cc", "netsim", "fluid", "rtc",
	"obs", "sweep", "harness", "stats", "runtime"}

// minRuns is the fewest workload runs one measurement makes, however
// short --seconds is, so every median has at least three samples.
const minRuns = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	tiny     bool   // self-test size: short runs, small metro
	spans    string // where the traced run writes its spans
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	failures []string
}

// account adds one child's operations to the tally.
func (r *result) account(s sample) {
	r.Attempted += s.Attempted
	if len(s.Failures) > 0 {
		r.Failed += min(len(s.Failures), s.Attempted)
		r.failures = append(r.failures, s.Failures...)
	}
}

// fail records a failed check on an operation already counted.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func main() {
	var o options
	var child childArgs
	flag.StringVar(&o.workload, "workload", "", "workload: metro, nation or sweep-smoke")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&o.seconds, "seconds", 25, "how long to keep measuring")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.spans, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.StringVar(&child.Kind, "child", "", "run one measurement in this process and print it as JSON (used by the benchmark itself)")
	flag.IntVar(&child.Par, "par", 0, "child: shards or sweep workers")
	flag.BoolVar(&child.Spans, "child-spans", false, "child: record spans")
	flag.Parse()

	if child.Kind != "" {
		child.Workload, child.Seed = o.workload, o.seed
		if err := json.NewEncoder(os.Stdout).Encode(runChild(child)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := measure(o, execRunner)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, f := range res.failures {
		fmt.Println("# FAILED:", f)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
}

// measure runs the workload for o.seconds and returns its metrics.
func measure(o options, run runner) (*result, error) {
	w, err := lookupWorkload(o.workload, o.tiny)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	// One shard (metro, nation) or sweep worker per CPU.
	base := childArgs{Workload: w.name, Seed: o.seed, Par: runtime.NumCPU(), Tiny: o.tiny}
	switch o.trace {
	case 0:
		return measureEndToEnd(o, base, run), nil
	case 1:
		return measurePerLayer(o, base, run)
	}
	return nil, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
}

// measureEndToEnd alternates set-up and workload runs until o.seconds
// have passed (at least minRuns of each) and reports medians.
func measureEndToEnd(o options, base childArgs, run runner) *result {
	r := &result{Metrics: map[string]value{}}
	// Set-up is measured before every run rather than once, so that its
	// median spans the same stretch of host time as the runs'.
	var setupS []float64
	var runs []sample
	repeat(o.seconds, func() {
		setup := run(base.with("setup"))
		r.account(setup)
		setupS = append(setupS, setup.SetupS...)
		s := run(base.with("run"))
		r.account(s)
		runs = append(runs, s)
	})
	checkModelled(r, runs)
	vals := map[string]float64{
		"wall_s":      medianOf(runs, func(s sample) float64 { return s.WallS }),
		"cpu_s":       medianOf(runs, func(s sample) float64 { return s.CPUS }),
		"setup_s":     median(setupS),
		"peak_rss_mb": medianOf(runs, func(s sample) float64 { return s.PeakRSSMB }),
		"allocs_m":    medianOf(runs, func(s sample) float64 { return s.AllocsM }),
		"alloc_mb":    medianOf(runs, func(s sample) float64 { return s.AllocMB }),
	}
	for k, v := range runs[0].Modelled {
		vals[k] = v
	}
	r.emit(endToEnd, vals)
	return r
}

// emit reports every metric of list from vals; a metric the run did not
// produce fails the run.
func (r *result) emit(list []metric, vals map[string]float64) {
	for _, m := range list {
		v, ok := vals[m.name]
		if !ok {
			r.fail("no value for %s", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("%s is %v", m.name, v)
			v = 0 // JSON has no NaN or Inf
		}
		r.Metrics[m.name] = value{v, m.unit}
	}
	r.Correct = r.Failed == 0
}

func medianOf(ss []sample, f func(sample) float64) float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = f(s)
	}
	return median(v)
}

// repeat calls fn until seconds have passed and it has run minRuns times.
func repeat(seconds float64, fn func()) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; n < minRuns || time.Now().Before(deadline); n++ {
		fn()
	}
}

// checkModelled fails every run whose modelled metrics differ, in any
// digit, from the first run's: they are pure functions of the seed.
func checkModelled(r *result, runs []sample) {
	for i, s := range runs[1:] {
		if !maps.Equal(runs[0].Modelled, s.Modelled) {
			r.fail("run %d modelled metrics %v differ from run 0's %v", i+1, s.Modelled, runs[0].Modelled)
		}
	}
}

// measurePerLayer is the traced run: untraced/traced pairs until
// o.seconds have passed (counters, profile shares and the tracing
// overhead), one run at a single shard or worker (scaling, and sweep jobs
// timed one by one), the set-up allocations, and the layer microbenchmarks.
func measurePerLayer(o options, base childArgs, run runner) (*result, error) {
	r := &result{Metrics: map[string]value{}}
	traced := base.with("traced")
	traced.Spans = true
	var spans []Span
	keep := func(s sample) sample {
		r.account(s)
		spans = append(spans, s.Spans...)
		return s
	}

	setupArgs := base.with("setup")
	setupArgs.Spans = true
	setup := keep(run(setupArgs))
	var plain, tr []sample
	repeat(o.seconds, func() {
		plain = append(plain, keep(run(base.with("run"))))
		tr = append(tr, keep(run(traced)))
	})
	serial := base.with("run")
	serial.Par, serial.Spans = 1, true
	one := keep(run(serial))
	// Tracing and the shard or worker count change what is observed and
	// how fast, never what is modelled.
	checkModelled(r, append(append(append([]sample(nil), plain...), tr...), one))
	micro := base.with("micro")
	micro.Spans = true
	mb := keep(run(micro))

	layer := map[string]float64{"cc.pbe_loss_pct": tr[0].Modelled["pbe_loss_pct"]}
	for k, v := range tr[0].Layer {
		layer[k] = v
	}
	for k, v := range mb.Layer {
		layer[k] = v
	}
	var prof profileCounts
	for _, s := range tr {
		prof.add(s.Profile)
	}
	for _, l := range shareLayers {
		layer[l+".self_share"] = prof.share(l)
	}
	layer["runtime.gc_share"] = ratio(float64(prof.GC), float64(prof.Total))
	wall := func(ss []sample) float64 { return medianOf(ss, func(s sample) float64 { return s.WallS }) }
	cpu := medianOf(plain, func(s sample) float64 { return s.CPUS })
	layer["trace.overhead_s"] = wall(tr) - wall(plain)
	layer["cluster.speedup"] = ratio(one.WallS, wall(plain))
	layer["cluster.parallel_eff"] = ratio(cpu, wall(plain)*float64(base.Par))
	layer["obs.setup_alloc_mb"] = setup.SetupAllocMB
	// Only the single-worker sweep times its jobs; elsewhere these read 0.
	layer["sweep.job_p50_ms"] = quantile(one.JobMs, 0.5)
	layer["sweep.job_p90_ms"] = quantile(one.JobMs, 0.9)
	layer["host.cores"] = float64(runtime.NumCPU())
	layer["host.go_minor"] = goMinor()

	r.emit(perLayer, layer)
	fmt.Printf("# %s seed %d: %d cores, %s, %d shards/workers; speedup %.3f over 1, tracing overhead %.3f s\n",
		base.Workload, base.Seed, runtime.NumCPU(), runtime.Version(), base.Par,
		layer["cluster.speedup"], layer["trace.overhead_s"])
	if o.spans != "" {
		path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.json", base.Workload, base.Seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("# spans: %s (%d)\n", path, len(spans))
	}
	return r, nil
}

// goMinor returns the Go minor version the benchmark was built with (24
// for go1.24.x), or 0 for a development toolchain.
func goMinor() float64 {
	var major, minor int
	if _, err := fmt.Sscanf(strings.TrimPrefix(runtime.Version(), "go"), "%d.%d", &major, &minor); err != nil {
		return 0
	}
	return float64(minor)
}
