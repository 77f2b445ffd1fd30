package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"pbecc/internal/harness"
	"pbecc/internal/sweep"
)

// setupDuration is the simulated length of a set-up run: the workload
// built and started, then stopped after one millisecond.
const setupDuration = time.Millisecond

// workload is one named input set. Its inputs are a pure function of the
// seed; the program under test only ever sees the generated scenario.
type workload struct {
	name   string
	family string // harness scenario family; "" for the sweep
	cells  int    // packet cells (scenario families only)
	dur    time.Duration
}

var workloads = []workload{
	{name: "metro", family: "metro", cells: 128, dur: time.Second},
	{name: "nation", family: "nation", cells: 4, dur: 4 * time.Second},
	{name: "sweep-smoke", dur: time.Second},
}

// tinyDur is the simulated length every workload shrinks to in the
// self-test; metro also shrinks to 8 cells.
const tinyDur = 200 * time.Millisecond

func lookupWorkload(name string, tiny bool) (workload, error) {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		if tiny {
			w.dur = tinyDur
			if w.family == "metro" {
				w.cells = 8
			}
		}
		return w, nil
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// params are a scenario family's build parameters.
func (w workload) params(seed int64, par int, dur time.Duration) harness.Params {
	return harness.Params{Seed: seed, Cells: w.cells, Duration: dur, Shards: par}
}

// sweepSpec is the built-in smoke sweep with its four seeds drawn from
// the benchmark seed (seed 0 is the committed smoke matrix).
func sweepSpec(seed int64, dur time.Duration) *sweep.Spec {
	spec := sweep.Smoke()
	spec.Seeds = []int64{4*seed + 1, 4*seed + 2, 4*seed + 3, 4*seed + 4}
	spec.DurationMs = int(dur / time.Millisecond)
	return spec
}

// outcome is what one execution of a workload produced: the modelled
// metrics (pure functions of the seed), how much simulated time ran, and
// every output check that failed.
type outcome struct {
	Modelled   map[string]float64 `json:"modelled"`
	SimSeconds float64            `json:"sim_seconds"`
	Failures   []string           `json:"failures,omitempty"`
	JobMs      []float64          `json:"job_ms,omitempty"` // per sweep job, single-worker runs only
}

func (o *outcome) failf(format string, args ...any) {
	o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
}

// execute runs the workload once for dur of simulated time with par
// shards (scenario families) or sweep workers. full selects the checks
// of a complete run; a set-up run is only checked for what set-up
// produces.
func execute(w workload, seed int64, par int, dur time.Duration, full bool, log *spanLog) outcome {
	if w.family == "" {
		return executeSweep(w, seed, par, dur, full, log)
	}
	var o outcome
	end := log.begin("harness", "harness.BuildScenario")
	sc, err := harness.BuildScenario(w.family, "pbe", w.params(seed, par, dur))
	end()
	if err != nil {
		o.failf("build %s: %v", w.name, err)
		return o
	}
	end = log.begin("harness", "harness.Run")
	res := harness.Run(sc)
	end()
	o.SimSeconds = dur.Seconds()
	o.Modelled = flowMetrics(res.Flows)

	if w.family == "nation" {
		want := harness.NationModeledCells*harness.NationModeledUsersPerCell +
			w.cells*(harness.MetroUEsPerCell-4)
		if res.Fluid == nil || res.Fluid.Sessions != want {
			got := 0
			if res.Fluid != nil {
				got = res.Fluid.Sessions
			}
			o.failf("nation reports %d fluid sessions, want %d", got, want)
		}
	}
	if full {
		f := res.Flows[0]
		if f.Received == 0 {
			o.failf("measured flow received nothing")
		}
		// The timeline has one entry per 100 ms window of the flow's
		// lifetime; data in the last one shows the run reached its end.
		windows := int(dur / (100 * time.Millisecond))
		if n := len(f.TimelineR); n != windows || n == 0 || f.TimelineR[n-1] <= 0 {
			o.failf("measured flow has %d timeline windows (want %d) or an empty final window", n, windows)
		}
	}
	checkFinite(&o)
	return o
}

func executeSweep(w workload, seed int64, par int, dur time.Duration, full bool, log *spanLog) outcome {
	var o outcome
	spec := sweepSpec(seed, dur)
	jobs, err := spec.Jobs()
	if err != nil {
		o.failf("expand sweep: %v", err)
		return o
	}
	// With one worker, the time between completions is each job's own
	// duration, so jobs are timed (and spanned) one by one.
	var progress func(done, total int)
	last := time.Now()
	if par == 1 {
		progress = func(done, total int) {
			now := time.Now()
			o.JobMs = append(o.JobMs, float64(now.Sub(last).Nanoseconds())/1e6)
			log.add("sweep", "sweep.job", last, now.Sub(last))
			last = now
		}
	}
	end := log.begin("sweep", "sweep.Run")
	res, err := sweep.RunProgress(spec, par, progress)
	end()
	if err != nil {
		o.failf("sweep: %v", err)
		return o
	}
	o.SimSeconds = float64(len(jobs)) * dur.Seconds()
	if len(res.Rows) != len(jobs) || len(jobs) != 160 {
		o.failf("sweep returned %d rows for %d jobs, want 160", len(res.Rows), len(jobs))
	}
	for i, r := range res.Rows {
		if math.IsNaN(r.TputMbps) || r.TputMbps < 0 || math.IsNaN(r.DelayP95Ms) {
			o.failf("row %d (%s/%s/%s seed %d) has throughput %v, p95 %v",
				i, r.Experiment, r.RAT, r.Scheme, r.Seed, r.TputMbps, r.DelayP95Ms)
		}
	}
	o.Modelled = rowMetrics(res.Rows)
	if full {
		for _, name := range []string{"pbe_tput_mbps", "tput_vs_bbr"} {
			if o.Modelled[name] <= 0 {
				o.failf("%s is %v", name, o.Modelled[name])
			}
		}
	}
	checkFinite(&o)
	return o
}

func checkFinite(o *outcome) {
	names := make([]string, 0, len(o.Modelled))
	for k := range o.Modelled {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if v := o.Modelled[k]; math.IsNaN(v) || math.IsInf(v, 0) {
			o.failf("modelled metric %s is %v", k, v)
		}
	}
}

// flowAcc averages per-flow outcomes over one scheme's flows.
type flowAcc struct {
	n                    int
	tput, p95, loss, err float64
}

func (a *flowAcc) mean(v float64) float64 {
	if a.n == 0 {
		return 0
	}
	return v / float64(a.n)
}

// flowMetrics derives the modelled metrics of a scenario run: the mean
// over every PBE flow of the run (the measured flow and the PBE
// competitors), and PBE against the BBR competitors of the same run.
func flowMetrics(flows []*harness.FlowResult) map[string]float64 {
	var pbe, bbr flowAcc
	for _, f := range flows {
		var a *flowAcc
		switch f.Scheme {
		case "pbe":
			a = &pbe
		case "bbr":
			a = &bbr
		default:
			continue
		}
		a.n++
		a.tput += f.AvgTputMbps
		a.p95 += f.Delay.Percentile(95)
		if sent := f.Received + f.Lost; sent > 0 {
			a.loss += 100 * float64(f.Lost) / float64(sent)
		}
		a.err += f.PBEErrPct
	}
	return map[string]float64{
		"pbe_tput_mbps":    pbe.mean(pbe.tput),
		"pbe_p95_delay_ms": pbe.mean(pbe.p95),
		"pbe_loss_pct":     pbe.mean(pbe.loss),
		"pbe_err_pct":      pbe.mean(pbe.err),
		"tput_vs_bbr":      ratio(pbe.mean(pbe.tput), bbr.mean(bbr.tput)),
		"p95_gain_vs_bbr":  ratio(bbr.mean(bbr.p95), pbe.mean(pbe.p95)),
	}
}

// rowMetrics derives the modelled metrics of a sweep: means over every
// PBE row, and PBE against BBR over the noise-free (experiment, RAT,
// seed) groups where both ran.
func rowMetrics(rows []sweep.Row) map[string]float64 {
	var pbe flowAcc
	type key struct {
		exp, rat string
		seed     int64
	}
	bbrRows := map[key]sweep.Row{}
	for _, r := range rows {
		if r.Scheme == "bbr" {
			bbrRows[key{r.Experiment, r.RAT, r.Seed}] = r
		}
	}
	var pbeTput, bbrTput, pbeP95, bbrP95 float64
	for _, r := range rows {
		if r.Scheme != "pbe" {
			continue
		}
		pbe.n++
		pbe.tput += r.TputMbps
		pbe.p95 += r.DelayP95Ms
		pbe.loss += r.LossPct
		pbe.err += r.PBEErrPct
		if b, ok := bbrRows[key{r.Experiment, r.RAT, r.Seed}]; ok && r.Noise == 0 {
			pbeTput += r.TputMbps
			bbrTput += b.TputMbps
			pbeP95 += r.DelayP95Ms
			bbrP95 += b.DelayP95Ms
		}
	}
	return map[string]float64{
		"pbe_tput_mbps":    pbe.mean(pbe.tput),
		"pbe_p95_delay_ms": pbe.mean(pbe.p95),
		"pbe_loss_pct":     pbe.mean(pbe.loss),
		"pbe_err_pct":      pbe.mean(pbe.err),
		"tput_vs_bbr":      ratio(pbeTput, bbrTput),
		"p95_gain_vs_bbr":  ratio(bbrP95, pbeP95),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// buildAll times harness.BuildScenario for every scenario the workload
// builds (one for a scenario family, one per job for the sweep) and
// returns the total in milliseconds.
func buildAll(w workload, seed int64, par int, log *spanLog) (float64, error) {
	type build struct {
		family, scheme string
		p              harness.Params
	}
	var builds []build
	if w.family != "" {
		builds = append(builds, build{w.family, "pbe", w.params(seed, par, w.dur)})
	} else {
		// The smoke spec sets no busy cells, fault axes or fluid tier, so
		// these are the parameters sweep.Run builds each job with.
		spec := sweepSpec(seed, w.dur)
		jobs, err := spec.Jobs()
		if err != nil {
			return 0, err
		}
		for _, j := range jobs {
			builds = append(builds, build{j.Experiment, j.Scheme, harness.Params{
				Seed: j.Seed, Duration: time.Duration(spec.DurationMs) * time.Millisecond,
				Cells: j.Cells, RAT: j.RAT, CapacityNoise: j.Noise}})
		}
	}
	var ms float64
	for _, b := range builds {
		start := time.Now()
		end := log.begin("harness", "harness.BuildScenario")
		_, err := harness.BuildScenario(b.family, b.scheme, b.p)
		end()
		if err != nil {
			return 0, err
		}
		ms += float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return ms, nil
}
