// Command nimbus-sim runs scenarios on the emulated bottleneck. With
// scalar flags it runs one scenario and prints a per-second trace plus a
// summary — the quickest way to watch Nimbus (or any baseline) against a
// chosen cross traffic mix. Schemes are typed specs resolved in the
// scheme registry: "-scheme nimbus(pulse=0.1,mu=est)" parameterizes the
// scheme inline (-list-schemes documents every scheme and parameter).
// "-flows nimbus*2+cubic@10" replaces the single scheme under test with
// a heterogeneous flow mix (counts, staggered joins, finite flows) and
// reports per-flow throughput plus Jain/JSD fairness. "-churn
// bulk(load=24)" runs a session-arrival workload (internal/workload)
// against the scheme under test — short flows arriving and departing for
// the whole horizon — and reports churn_* metrics (completion times,
// fairness, elastic ground truth) alongside the usual ones. The bottleneck may
// be time-varying: -link-trace names an embedded capacity trace (or a
// time_ms,mbps file) and -rate-pattern applies a step/ramp/outage
// pattern to the nominal rate. The path may be multi-hop: -topology
// selects a registered preset (single, access-hop, parking-lot,
// rev-congested; see -list-topologies) or a chain spec like
// "access(x4,5ms)->bn", and multi-hop runs report per-hop
// utilization/drops/queueing. Any of -scheme, -flows, -churn, -rate,
// -rtt, -buf, -aqm, -cross, -link-trace, -rate-pattern, -topology and -seed
// also accept comma-separated lists (commas inside a spec's parentheses
// don't split); the cartesian product then runs as a parallel sweep on
// -workers cores and prints one summary row per scenario (optionally
// written to -out as JSON or CSV).
//
// Examples:
//
//	nimbus-sim -scheme nimbus -rate 96 -rtt 50ms -buf 100ms -cross cubic -dur 60s
//	nimbus-sim -scheme "nimbus(pulse=0.125,mu=est),cubic,bbr" -rate 48,96 \
//	    -cross poisson -workers 8 -out sweep.csv
//	nimbus-sim -flows "nimbus+cubic,nimbus*2+bbr@10" -link-trace cell-ramp,wifi-cafe
//	nimbus-sim -scheme nimbus -rate-pattern step:12:48:4000,outage:20000:5000 -dur 60s
//	nimbus-sim -scheme nimbus,cubic -topology access-hop,parking-lot -out topo.json
//	nimbus-sim -scheme nimbus -churn "bulk(load=24),web(load=12)" -dur 60s
//	nimbus-sim -list-schemes
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"nimbus/internal/exp"
	"nimbus/internal/runner"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

func main() {
	// main wraps realMain so the deferred profile writers run before the
	// process exits, also after a failed run. Flag errors exit through
	// fatalf before anything is simulated.
	os.Exit(realMain())
}

func realMain() int {
	var (
		scheme  = flag.String("scheme", "nimbus", "scheme spec(s) under test, comma-separated (see -list-schemes)")
		flows   = flag.String("flows", "", "heterogeneous flow mix(es) replacing -scheme: SPEC[*COUNT][@STARTs[:STOPs]] joined by \"+\"; comma-separated for sweeps")
		churn   = flag.String("churn", "", "session-arrival workload(s) competing with -scheme: workload specs like bulk(load=24), web(load=12,cc=bbr), trace(src=flash-crowd); comma-separated for sweeps")
		rate    = flag.String("rate", "96", "bottleneck link rate(s), Mbit/s, comma-separated")
		rtt     = flag.String("rtt", "50ms", "base RTT(s), comma-separated durations")
		buf     = flag.String("buf", "100ms", "buffer depth(s) (time at link rate), comma-separated durations")
		aqm     = flag.String("aqm", "droptail", "queue discipline(s): droptail, pie, codel; comma-separated")
		trace   = flag.String("link-trace", "", "time-varying link capacity trace(s): embedded names (see -list-traces) or time_ms,mbps files; comma-separated")
		pattern = flag.String("rate-pattern", "", "time-varying link pattern(s): step:LO:HI:PERIODms, ramp:MIN:MAX:PERIODms, outage:ATms:DURms, constant; comma-separated")
		topo    = flag.String("topology", "", "path topology(ies): preset names (see -list-topologies) or chain specs like access(x4,5ms)->bn; comma-separated")
		cross   = flag.String("cross", "none", "cross traffic: none, cubic, reno, poisson, cbr, trace, video4k, video1080p")
		crossMb = flag.Float64("cross-rate", 48, "cross traffic rate for poisson/cbr/trace, Mbit/s")
		fluid   = flag.String("fluid", "", "fluid cross-traffic spec(s): off, on, or dt=5ms, comma-separated for sweeps — simulate the cross aggregate as a rate process instead of packets (cbr/poisson/cubic/reno kinds only; approximate, so fluid cells get their own scenario keys)")
		dur     = flag.Duration("dur", 60*time.Second, "simulated duration")
		seed    = flag.String("seed", "1", "random seed(s), comma-separated")
		workers = flag.Int("workers", 0, "sweep worker pool size (0 = all cores, 1 = sequential)")
		out     = flag.String("out", "", "write sweep results to this file (.json or .csv)")
		quiet   = flag.Bool("quiet", false, "suppress the per-second trace (single-scenario mode)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file when the run completes")

		listSchemes     = flag.Bool("list-schemes", false, "list registered schemes with their typed params and exit")
		listTraces      = flag.Bool("list-traces", false, "list embedded link capacity traces and exit")
		listTopologies  = flag.Bool("list-topologies", false, "list registered topology presets and exit")
		listExperiments = flag.Bool("list-experiments", false, "list paper experiment ids (run them with nimbus-bench -run) and exit")
	)
	flag.Parse()
	if exp.HandleListFlags(*listSchemes, *listTraces, *listTopologies, *listExperiments) {
		return 0
	}

	stopProfiles, err := exp.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stopProfiles()

	grid := runner.Grid{
		Base: runner.Scenario{
			CrossRateMbps: *crossMb,
			DurationSec:   sim.FromDuration(*dur).Seconds(),
		},
		RatesMbps:    parseFloats(*rate, "-rate"),
		LinkTraces:   spec.SplitList(*trace),
		RatePatterns: spec.SplitList(*pattern),
		Topologies:   spec.SplitList(*topo),
		RTTsMs:       parseDurationsMs(*rtt, "-rtt"),
		BuffersMs:    parseDurationsMs(*buf, "-buf"),
		AQMs:         spec.SplitList(*aqm),
		Churns:       spec.SplitList(*churn),
		Crosses:      crossList(*cross, *crossMb),
		Fluids:       spec.SplitList(*fluid),
		Seeds:        parseInts(*seed, "-seed"),
	}
	if *flows != "" {
		if *churn != "" {
			fatalf("-flows and -churn are mutually exclusive")
		}
		if grid.FlowMixes = spec.SplitList(*flows); len(grid.FlowMixes) == 0 {
			fatalf("-flows: no values given")
		}
	} else {
		if grid.Schemes, err = spec.ParseList(*scheme); err != nil {
			fatalf("-scheme: %v", err)
		}
		if len(grid.Schemes) == 0 {
			fatalf("-scheme: no values given")
		}
	}
	if grid, err = exp.CanonicalGrid(grid); err != nil {
		fatalf("%v", err)
	}
	scs := grid.Expand()
	if len(scs) == 1 {
		// Single-scenario mode runs with the requested seed itself (the
		// historical behavior); seed derivation only matters for sweeps,
		// where cells must not share random streams.
		scs[0].RunSeed = 0
		return runSingle(scs[0], *quiet)
	}
	return runSweep(scs, *workers, *out)
}

// crossList expands a comma-separated -cross value; every kind shares the
// -cross-rate.
func crossList(kinds string, rateMbps float64) []runner.Cross {
	var out []runner.Cross
	for _, k := range spec.SplitList(kinds) {
		out = append(out, runner.Cross{Kind: k, RateMbps: rateMbps})
	}
	if len(out) == 0 {
		fatalf("-cross: no values given")
	}
	return out
}

// runSweep executes the grid on the worker pool and prints a summary table.
func runSweep(scs []runner.Scenario, workers int, out string) int {
	rn := &runner.Runner{Workers: workers, OnProgress: runner.Progress(os.Stderr)}
	rs := rn.Run(scs, exp.RunScenario)

	fmt.Printf("%-40s %10s %12s %12s %12s\n", "scenario", "Mbit/s", "qdelay p95", "mode sw", "events/s")
	for _, r := range rs {
		if r.Err != "" {
			fmt.Printf("%-40s ERROR: %s\n", r.Scenario.Name, r.Err)
			continue
		}
		modeSw := "-"
		if v, ok := r.Metrics["mode_switches"]; ok {
			modeSw = strconv.Itoa(int(v))
		}
		fmt.Printf("%-40s %10.2f %9.1f ms %12s %12.0f\n",
			r.Scenario.Name, r.Metrics["mean_mbps"], r.Metrics["qdelay_p95_ms"], modeSw, r.EventsPerSec())
	}
	if out != "" {
		if err := runner.WriteFile(out, rs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", out)
	}
	return 0
}

// runSingle preserves the classic single-scenario view: a per-second
// trace of throughput, queueing delay and Nimbus mode, then a summary.
func runSingle(sc runner.Scenario, quiet bool) int {
	if sc.FlowMix != "" || sc.Churn != "" {
		return runSingleMetrics(sc)
	}
	r, scheme, probe, err := rigFor(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	end := sim.FromSeconds(sc.DurationSec)
	if !quiet {
		fmt.Printf("%6s %10s %10s %8s %10s\n", "t(s)", "Mbit/s", "delay(ms)", "mode", "eta")
		var report func()
		report = func() {
			now := r.Sch.Now()
			if now > 0 {
				mode, eta := "-", "-"
				if scheme.Nimbus != nil {
					mode = scheme.Nimbus.Mode().String()
					eta = fmt.Sprintf("%.2f", scheme.Nimbus.LastEta())
				}
				fmt.Printf("%6.0f %10.2f %10.2f %8s %10s\n",
					now.Seconds(),
					probe.MeanMbps(now-sim.Second, now),
					r.Net.QueueDelayNow().Millis(),
					mode, eta)
			}
			if now < end {
				r.Sch.After(sim.Second, report)
			}
		}
		r.Sch.After(0, report)
	}
	r.Sch.RunUntil(end)

	fmt.Printf("\nsummary: scheme=%s mean=%.2f Mbit/s", sc.Scheme, probe.MeanMbps(0, end))
	d := probe.Delay.Summary()
	fmt.Printf(" qdelay mean=%.1fms p50=%.1fms p95=%.1fms", d.Mean, d.P50, d.P95)
	if scheme.Nimbus != nil {
		fmt.Printf(" modeSwitches=%d finalMode=%s role=%s",
			scheme.Nimbus.ModeSwitches, scheme.Nimbus.Mode(), scheme.Nimbus.Role())
	}
	fmt.Println()
	return 0
}

// runSingleMetrics runs one flow-mix or churn scenario and prints every
// metric the run produced (per-flow throughputs, fairness, delays,
// churn_* summaries), sorted by name.
func runSingleMetrics(sc runner.Scenario) int {
	r := exp.RunScenario(sc)
	if r.Err != "" {
		fmt.Fprintln(os.Stderr, r.Err)
		return 2
	}
	if sc.FlowMix != "" {
		fmt.Printf("flows: %s\n", sc.FlowMix)
	} else {
		fmt.Printf("scheme: %s  churn: %s\n", sc.Scheme, sc.Churn)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-18s %12.3f\n", k, r.Metrics[k])
	}
	return 0
}

// rigFor materializes the scenario, turning harness panics (unknown
// scheme or AQM) into flag-style errors instead of stack traces.
func rigFor(sc runner.Scenario) (r *exp.Rig, scheme exp.Scheme, probe *exp.FlowProbe, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	return exp.RigForScenario(sc)
}

func parseFloats(s, flagName string) []float64 {
	var out []float64
	for _, p := range spec.SplitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			fatalf("%s: bad value %q: %v", flagName, p, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		fatalf("%s: no values given", flagName)
	}
	return out
}

func parseInts(s, flagName string) []int64 {
	var out []int64
	for _, p := range spec.SplitList(s) {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			fatalf("%s: bad value %q: %v", flagName, p, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		fatalf("%s: no values given", flagName)
	}
	return out
}

func parseDurationsMs(s, flagName string) []float64 {
	var out []float64
	for _, p := range spec.SplitList(s) {
		d, err := time.ParseDuration(p)
		if err != nil {
			fatalf("%s: bad duration %q: %v", flagName, p, err)
		}
		out = append(out, sim.FromDuration(d).Millis())
	}
	if len(out) == 0 {
		fatalf("%s: no values given", flagName)
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
