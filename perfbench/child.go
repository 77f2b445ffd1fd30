package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"syscall"
	"time"

	"pbecc/internal/obs"
)

// Every measurement runs in a fresh child process, so each one's peak
// RSS, CPU time and allocation counts are its own, and no run inherits
// another's heap.

// childArgs selects one measurement.
type childArgs struct {
	Kind     string // "run", "setup", "traced" or "micro"
	Workload string
	Seed     int64
	Par      int  // shards (scenario families) or sweep workers
	Tiny     bool // self-test size (in-process only)
	Spans    bool // record spans
}

func (a childArgs) with(kind string) childArgs { a.Kind = kind; return a }

// sample is what one child measured.
type sample struct {
	Attempted int      `json:"attempted"`
	Failures  []string `json:"failures,omitempty"`

	// run and traced
	WallS     float64            `json:"wall_s"`
	CPUS      float64            `json:"cpu_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	AllocsM   float64            `json:"allocs_m"`
	AllocMB   float64            `json:"alloc_mb"`
	Modelled  map[string]float64 `json:"modelled,omitempty"`
	JobMs     []float64          `json:"job_ms,omitempty"`

	// setup
	SetupS       []float64 `json:"setup_s,omitempty"`
	SetupAllocMB float64   `json:"setup_alloc_mb"`

	// traced and micro
	Layer   map[string]float64 `json:"layer,omitempty"`
	Profile profileCounts      `json:"profile"`
	Spans   []Span             `json:"spans,omitempty"`
}

// runner performs one measurement: execRunner in a child process for the
// benchmark proper, runChild in-process for the self-test.
type runner func(childArgs) sample

// execRunner re-runs the benchmark binary in child mode.
func execRunner(a childArgs) sample {
	self, err := os.Executable()
	if err != nil {
		return sample{Attempted: 1, Failures: []string{"locate benchmark binary: " + err.Error()}}
	}
	args := []string{"-child", a.Kind, "-workload", a.Workload,
		"-seed", strconv.FormatInt(a.Seed, 10), "-par", strconv.Itoa(a.Par)}
	if a.Spans {
		args = append(args, "-child-spans")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var s sample
	if err == nil {
		err = json.Unmarshal(out, &s)
	}
	if err != nil {
		return sample{Attempted: 1, Failures: []string{fmt.Sprintf("%s child: %v", a.Kind, err)}}
	}
	return s
}

// runChild performs one measurement in this process.
func runChild(a childArgs) sample {
	w, err := lookupWorkload(a.Workload, a.Tiny)
	if err != nil {
		return sample{Attempted: 1, Failures: []string{err.Error()}}
	}
	var log *spanLog
	if a.Spans {
		log = newSpanLog(os.Getpid())
	}
	var s sample
	switch a.Kind {
	case "run":
		s = measureRun(w, a, log)
	case "setup":
		s = measureSetup(w, a, log)
	case "traced":
		s = measureTraced(w, a, log)
	case "micro":
		scale := 1
		if a.Tiny {
			scale = 20
		}
		s = sample{Attempted: 1, Layer: runMicro(a.Seed, a.Par, scale, log)}
	default:
		s = sample{Attempted: 1, Failures: []string{"unknown child kind " + a.Kind}}
	}
	if log != nil {
		s.Spans = log.spans
	}
	return s
}

// cpuSeconds returns the process's user+system CPU time and its peak RSS
// in MB.
func cpuSeconds() (cpu, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) * 1024 / 1e6
}

// measureRun executes the workload once and measures its host cost.
func measureRun(w workload, a childArgs, log *spanLog) sample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, _ := cpuSeconds()
	start := time.Now()
	o := execute(w, a.Seed, a.Par, w.dur, true, log)
	wall := time.Since(start).Seconds()
	cpu1, peak := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return sample{
		Attempted: 1, Failures: o.Failures,
		WallS: wall, CPUS: cpu1 - cpu0, PeakRSSMB: peak,
		AllocsM:  float64(m1.Mallocs-m0.Mallocs) / 1e6,
		AllocMB:  float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		Modelled: o.Modelled, JobMs: o.JobMs,
	}
}

// setupReps is how many set-up runs one setup child makes.
const setupReps = 3

// measureSetup times the workload truncated to one simulated millisecond
// setupReps times, and the bytes the median one allocated.
func measureSetup(w workload, a childArgs, log *spanLog) sample {
	s := sample{Attempted: setupReps}
	var allocs []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		end := log.begin("setup", "setup.run")
		start := time.Now()
		o := execute(w, a.Seed, a.Par, setupDuration, false, log)
		s.SetupS = append(s.SetupS, time.Since(start).Seconds())
		end()
		runtime.ReadMemStats(&m1)
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		s.Failures = append(s.Failures, o.Failures...)
	}
	s.SetupAllocMB = median(allocs)
	return s
}

// measureTraced executes the workload with the obs counters on and a CPU
// profile running, then times every BuildScenario call the workload
// makes, and derives the per-layer counts.
func measureTraced(w workload, a childArgs, log *spanLog) sample {
	obs.Reset()
	obs.Enable()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		obs.Disable()
		return sample{Attempted: 1, Failures: []string{"start CPU profile: " + err.Error()}}
	}
	start := time.Now()
	o := execute(w, a.Seed, a.Par, w.dur, true, log)
	wall := time.Since(start).Seconds()
	pprof.StopCPUProfile()
	obs.Disable()
	runtime.ReadMemStats(&m1)
	snap := obs.TakeSnapshot()

	s := sample{Attempted: 1, Failures: o.Failures, WallS: wall, Modelled: o.Modelled}
	pc, err := bucketProfile(prof.Bytes())
	if err != nil {
		s.Failures = append(s.Failures, err.Error())
	}
	s.Profile = pc
	s.Layer = counterMetrics(snap, o.SimSeconds)
	s.Layer["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	buildMs, err := buildAll(w, a.Seed, a.Par, log)
	if err != nil {
		s.Failures = append(s.Failures, "build: "+err.Error())
	}
	s.Layer["harness.build_ms"] = buildMs
	return s
}

// counterMetrics derives per-layer work counts from the program's own obs
// counters, per simulated second where the count scales with run length.
func counterMetrics(snap obs.Snapshot, simSeconds float64) map[string]float64 {
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	perSimS := func(name string) float64 { return ratio(c(name), simSeconds) }
	return map[string]float64{
		"sim.events_per_sim_s":             perSimS("sim.events_scheduled"),
		"sim.cancel_ratio":                 ratio(c("sim.events_cancelled"), c("sim.events_scheduled")),
		"sim.event_reuse_ratio":            ratio(c("sim.event_pool_reuse"), c("sim.events_scheduled")),
		"sim.heap_len_max":                 float64(snap.Watermarks["sim.heap_len_max"]),
		"cluster.window_barriers":          c("cluster.window_barriers"),
		"cluster.cross_events_per_sim_s":   perSimS("cluster.cross_events"),
		"cluster.idle_window_ratio":        ratio(c("cluster.shard_windows_idle"), c("cluster.shard_windows")),
		"core.probe_samples_per_sim_s":     perSimS("pbe.probe_samples"),
		"cc.acks_per_sim_s":                perSimS("cc.acks"),
		"cc.loss_ratio":                    ratio(c("cc.losses"), c("cc.acks")+c("cc.losses")),
		"cc.rate_decisions_per_sim_s":      perSimS("cc.rate_decisions"),
		"netsim.delivered_per_sim_s":       perSimS("netsim.packets_delivered"),
		"netsim.drop_ratio":                ratio(c("netsim.packets_dropped"), c("netsim.packets_delivered")+c("netsim.packets_dropped")),
		"netsim.queue_bytes_max":           float64(snap.Watermarks["netsim.queue_bytes_max"]),
		"netsim.packet_reuse_ratio":        ratio(c("sim.packet_pool_reuse"), c("netsim.packets_delivered")),
		"fluid.envelope_updates_per_sim_s": perSimS("fluid.envelope_updates"),
		"fluid.session_windows_per_sim_s":  perSimS("fluid.session_on_windows"),
		"rtc.frames_sent_per_sim_s":        perSimS("rtc.frames_sent"),
		"rtc.shed_ratio":                   ratio(c("rtc.frames_shed"), c("rtc.frames_sent")+c("rtc.frames_shed")),
	}
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
