// Command pbesim runs one scenario family for one or more schemes and
// prints a summary per scheme. A run is named the way a sweep row is:
// family, RAT, scheme and seed, plus the scenario knobs of
// harness.Params; every zero value means the family default.
//
// Usage:
//
//	pbesim -family steady -scheme pbe -duration 10s -rssi -93 -cells 2 -busy
//	pbesim -scheme bbr -internet-rate 10e6
//	pbesim -family rtc -scheme pbertc -series - -series-filter cc.rate,monitor.est
//	pbesim -family metro -scheme pbe -cells 8 -duration 500ms -shards 4 -trace metro.json
//	pbesim -family rtc -scheme pbertc -fault-stale 1 -fault-handover 0.5 -trace faulted.json
//	pbesim -scheme pbe,cubic,pbertc -report report.svg -csv report.csv
//
// Output sinks ('-' = stdout, which moves the summary to stderr):
//
//	-series  the run's time-series CSV (narrowed by -series-filter)
//	-trace   Chrome trace-event JSON on the virtual clock, viewable in
//	         Perfetto (ui.perfetto.dev) or chrome://tracing: shard window
//	         spans, cc decision tracks, PBE estimation-error tracks,
//	         fault and frame-shed instants, and the cc.rate/monitor.est
//	         series as counter tracks
//	-report  SVG figure, one panel per scheme (-csv writes its data)
//
// -series and -trace take a single scheme. Recording observes the run
// without changing it: results are byte-identical with any sink on or
// off, for any -shards value.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"pbecc/internal/harness"
	"pbecc/internal/obs"
	"pbecc/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pbesim:", err)
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pbesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var p harness.Params
	family := fs.String("family", "steady", "scenario family (see pbesweep -list)")
	schemeList := fs.String("scheme", "pbe", "congestion control scheme, or a comma list run one after another")
	fs.StringVar(&p.RAT, "rat", harness.RATLTE, "radio access technology: lte or nr")
	fs.Int64Var(&p.Seed, "seed", 1, "simulation seed (0 = family default)")
	fs.DurationVar(&p.Duration, "duration", 0, "simulated duration (0 = family default)")
	fs.IntVar(&p.Cells, "cells", 0, "cell count (0 = family default)")
	fs.Float64Var(&p.RSSI, "rssi", 0, "signal strength in dBm (0 = family default)")
	fs.BoolVar(&p.Busy, "busy", false, "busy cells (control chatter; background users on steady)")
	fs.Float64Var(&p.CapacityNoise, "noise", 0, "capacity measurement noise std fraction")
	fs.IntVar(&p.Shards, "shards", 0, "parallel shard width (0 = serial); never changes results")
	fs.Float64Var(&p.FaultStale, "fault-stale", 0, "stale PDCCH decode fault intensity in [0, 1]")
	fs.Float64Var(&p.FaultMiss, "fault-miss", 0, "missed cell-detection fault intensity in [0, 1]")
	fs.Float64Var(&p.FaultHandover, "fault-handover", 0, "handover-storm fault intensity in [0, 1]")
	fs.Float64Var(&p.FaultOnOff, "fault-onoff", 0, "adversarial on-off competitor intensity in [0, 1]")
	rtt := fs.Duration("rtt", 0, "override the first flow's server-tower round-trip propagation (0 = family default)")
	internetRate := fs.Float64("internet-rate", 0, "add an Internet bottleneck in bits/s to the first flow (0 = none)")
	seriesOut := fs.String("series", "", "write the time-series CSV to this file")
	seriesFilter := fs.String("series-filter", "", "comma-separated signal names to keep in the -series CSV (default: all)")
	traceOut := fs.String("trace", "", "write Chrome trace-event JSON to this file")
	reportOut := fs.String("report", "", "write the SVG report figure to this file")
	csvOut := fs.String("csv", "", "with -report: also write the plotted trajectories as CSV to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	var schemes []string
	for _, s := range strings.Split(*schemeList, ",") {
		if s = strings.TrimSpace(s); s != "" {
			schemes = append(schemes, s)
		}
	}
	switch {
	case len(schemes) == 0:
		return fmt.Errorf("no scheme given")
	case len(schemes) > 1 && (*seriesOut != "" || *traceOut != ""):
		return fmt.Errorf("-series and -trace take one scheme, got %d", len(schemes))
	case *csvOut != "" && *reportOut == "":
		return fmt.Errorf("-csv requires -report <file>")
	case *seriesFilter != "" && *seriesOut == "":
		return fmt.Errorf("-series-filter requires -series <file>")
	}
	filter, err := parseSeriesFilter(*seriesFilter)
	if err != nil {
		return err
	}
	scs := make([]*harness.Scenario, len(schemes))
	for i, scheme := range schemes {
		sc, err := harness.BuildScenario(*family, scheme, p)
		if err != nil {
			return err
		}
		if *rtt > 0 {
			sc.Flows[0].RTTBase = *rtt
		}
		if *internetRate > 0 {
			sc.Flows[0].InternetRate = *internetRate
			sc.Flows[0].InternetQueue = 1 << 18
		}
		sc.Series = *seriesOut != "" || *traceOut != "" || *reportOut != ""
		sc.Trace = *traceOut != ""
		scs[i] = sc
	}

	summary := stdout
	if slices.Contains([]string{*seriesOut, *traceOut, *reportOut, *csvOut}, "-") {
		summary = stderr
	}
	var panels []panel
	for i, sc := range scs {
		res := harness.Run(sc)
		if i > 0 {
			fmt.Fprintln(summary)
		}
		printSummary(summary, res)
		if *seriesOut != "" {
			if err := writeTo(*seriesOut, stdout, func(w io.Writer) error {
				return res.Series.WriteCSVFiltered(w, filter)
			}); err != nil {
				return err
			}
		}
		if *traceOut != "" {
			addSeriesTracks(res.Trace, res.Series)
			if res.Trace.Dropped > 0 {
				fmt.Fprintf(stderr, "pbesim: ring overflow dropped %d oldest events within single windows\n", res.Trace.Dropped)
			}
			fmt.Fprintf(stderr, "pbesim: %s/%s/%s seed %d: %d trace events\n",
				*family, p.RAT, sc.Flows[0].Scheme, sc.Seed, res.Trace.Len())
			if err := writeTo(*traceOut, stdout, res.Trace.WriteChromeTrace); err != nil {
				return err
			}
		}
		if *reportOut != "" {
			tr := sweep.BuildTrajectory(res.Series, sc.Flows[0].ID, sc.Flows[0].UE)
			if len(tr.Rate) == 0 {
				return fmt.Errorf("scheme %s recorded no trajectory", schemes[i])
			}
			panels = append(panels, panel{scheme: schemes[i], traj: tr})
		}
	}
	if *reportOut == "" {
		return nil
	}
	title := fmt.Sprintf("%s/%s seed %d", *family, p.RAT, scs[0].Seed)
	if err := writeTo(*reportOut, stdout, func(w io.Writer) error { return renderSVG(w, title, panels) }); err != nil {
		return err
	}
	if *csvOut != "" {
		return writeTo(*csvOut, stdout, func(w io.Writer) error { return renderCSV(w, panels) })
	}
	return nil
}

// printSummary reports the measured (first) flow of one run.
func printSummary(w io.Writer, r *harness.Result) {
	f := r.Flows[0]
	fmt.Fprintf(w, "scheme          %s\n", f.Scheme)
	fmt.Fprintf(w, "duration        %v (seed %d)\n", r.Scenario.Duration, r.Scenario.Seed)
	fmt.Fprintf(w, "avg throughput  %.2f Mbit/s\n", f.AvgTputMbps)
	fmt.Fprintf(w, "tput p10/50/90  %.1f / %.1f / %.1f Mbit/s\n",
		f.Tput.Percentile(10), f.Tput.Percentile(50), f.Tput.Percentile(90))
	fmt.Fprintf(w, "delay avg       %.1f ms\n", f.Delay.Mean())
	fmt.Fprintf(w, "delay p50/95    %.1f / %.1f ms\n",
		f.Delay.Percentile(50), f.Delay.Percentile(95))
	fmt.Fprintf(w, "packets         %d acked, %d lost\n", f.Received, f.Lost)
	if f.Scheme == "pbe" {
		fmt.Fprintf(w, "internet state  %.1f%% of time\n", 100*f.InternetFrac)
	}
	if harness.SchemeUsesMonitor(f.Scheme) {
		fmt.Fprintf(w, "capacity error  %.1f%% mean abs (vs noise-free oracle)\n", f.PBEErrPct)
	}
	fmt.Fprintf(w, "CA triggered    %v\n", r.CATriggered)
}

// parseSeriesFilter validates the -series-filter value against the
// registered signal names and lists the valid names on a typo - the same
// UX as an unknown -scheme, and for the same reason: a typo'd signal
// silently filtering everything away looks like an empty run.
func parseSeriesFilter(spec string) ([]string, error) {
	valid := obs.SeriesNames()
	var names []string
	for _, n := range strings.Split(spec, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if !slices.Contains(valid, n) {
			return nil, fmt.Errorf("unknown series %q in -series-filter (valid: %v)", n, valid)
		}
		names = append(names, n)
	}
	return names, nil
}

// addSeriesTracks projects the run's recorded series onto the trace as
// counter tracks under a dedicated trace process: the transport's
// per-window rate decisions ("series/cc.rate/flow<id>") next to the
// monitor's capacity estimate ("series/monitor.est/ue<id>"), on the same
// virtual clock as the shard spans and fault instants. The points are
// already 40 ms window aggregates, so even a metro trace adds only a few
// hundred events per track.
func addSeriesTracks(rec *obs.Recorder, series *obs.SeriesRecorder) {
	pid := 0
	for _, ev := range rec.Events() {
		if ev.Pid >= pid {
			pid = ev.Pid + 1
		}
	}
	sb := rec.NewBuffer(pid)
	for _, sig := range []struct{ name, unit string }{
		{"cc.rate", "flow"},
		{"monitor.est", "ue"},
	} {
		for _, k := range series.Keys() {
			if k.Name != sig.name {
				continue
			}
			track := fmt.Sprintf("series/%s/%s%d", sig.name, sig.unit, k.Tid)
			for _, p := range series.TrackPoints(k.Name, k.Tid) {
				sb.CounterEvent(track, p.Time(), p.Mean)
			}
			rec.Drain(sb)
		}
	}
}

// writeTo renders into path, or into stdout when path is "-".
func writeTo(path string, stdout io.Writer, render func(io.Writer) error) error {
	if path == "-" {
		return render(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
