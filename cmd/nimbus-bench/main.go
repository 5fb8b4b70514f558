// Command nimbus-bench regenerates the paper's tables and figures, and
// benchmarks the simulator through the parallel sweep engine. Each
// experiment id corresponds to one table or figure (see DESIGN.md for the
// index); "all" runs everything. Figure grids fan out across -workers
// cores; results are identical for any worker count. The uniform listing
// flags (shared with nimbus-sim and elasticity) document everything the
// harness can run: -list-experiments (experiment ids), -list-schemes
// (registered scheme specs with typed params), -list-traces (embedded
// capacity traces).
//
// Usage:
//
//	nimbus-bench -list-experiments
//	nimbus-bench -list-schemes
//	nimbus-bench -list-traces
//	nimbus-bench -list-topologies
//	nimbus-bench -run fig08 [-seed 1] [-full] [-workers 8]
//	nimbus-bench -run mobile          # schemes x time-varying link traces
//	nimbus-bench -run coexist         # heterogeneous flow mixes x traces
//	nimbus-bench -run topo            # parking-lot fairness, congested ACK paths
//	nimbus-bench -run churn           # schemes x session-arrival workloads
//	nimbus-bench -run all -full
//	nimbus-bench -benchmark [-bench-out BENCH_runner.json] [-topology access-hop]
//	nimbus-bench -benchmark -churn "bulk(load=24)"
//	nimbus-bench -grid sweep.json -out results.json
//	nimbus-bench -grid sweep.json -remote http://127.0.0.1:9037 -out results.json
//
// -grid runs an arbitrary sweep described by a runner.Grid JSON file;
// with -remote it is submitted to a nimbus-svc daemon instead of
// simulated locally, streaming the daemon's per-cell progress and saving
// the response verbatim — byte-identical to a local run of the same grid
// (cells the daemon has seen before come from its cache and are not
// simulated at all).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"nimbus/internal/exp"
	"nimbus/internal/runner"
	"nimbus/internal/scheme"
	"nimbus/internal/svc"
)

func main() {
	// main wraps realMain so the deferred profile writers run before the
	// process exits — including on error exits, whose profiles are exactly
	// the ones worth inspecting.
	os.Exit(realMain())
}

func realMain() int {
	var (
		list            = flag.Bool("list", false, "alias for -list-experiments")
		listExperiments = flag.Bool("list-experiments", false, "list experiment ids and exit")
		listSchemes     = flag.Bool("list-schemes", false, "list registered schemes with their typed params and exit")
		listTraces      = flag.Bool("list-traces", false, "list embedded link capacity traces and exit")
		listTopologies  = flag.Bool("list-topologies", false, "list registered topology presets and exit")
		run             = flag.String("run", "", "experiment id to run (or \"all\")")
		topo            = flag.String("topology", "", "topology(ies) for the -benchmark sweep: preset names or chain specs, comma-separated (default: the single bottleneck)")
		churn           = flag.String("churn", "", "churn workload(s) for the -benchmark sweep: workload specs like bulk(load=24), comma-separated (default: no session churn)")
		fluid           = flag.String("fluid", "", "fluid cross-traffic spec(s) for the -benchmark sweep: off, on, or dt=5ms, comma-separated — run the cross aggregate as a rate process instead of packets (fluid cells get their own scenario keys)")
		seed            = flag.Int64("seed", 1, "simulation seed")
		full            = flag.Bool("full", false, "run at the paper's full horizons (slower)")
		workers         = flag.Int("workers", 0, "worker pool size for experiment grids (0 = all cores, 1 = sequential)")
		bench           = flag.Bool("benchmark", false, "run the canonical scenario sweep and report events/sec per scenario")
		benchOut        = flag.String("bench-out", "BENCH_runner.json", "where -benchmark writes its results (.json or .csv)")
		gridFile        = flag.String("grid", "", "run the sweep grid described by this JSON file (a runner.Grid document)")
		remote          = flag.String("remote", "", "submit the -grid or -benchmark sweep to a nimbus-svc daemon at this base URL instead of simulating locally")
		outFile         = flag.String("out", "", "where -grid writes its results (.json or .csv; remote responses are saved verbatim, so use .json)")
		cpuprofile      = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memprofile      = flag.String("memprofile", "", "write a heap profile to this file when the run completes")
	)
	flag.Parse()
	exp.Workers = *workers

	stopProfiles, err := exp.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stopProfiles()

	switch {
	case exp.HandleListFlags(*listSchemes, *listTraces, *listTopologies, *list || *listExperiments):
	case *gridFile != "":
		return runGridFile(*gridFile, *remote, *workers, *outFile)
	case *bench:
		return runBenchmark(*seed, *workers, *benchOut, *topo, *churn, *fluid, *remote)
	case *run == "":
		flag.Usage()
		return 2
	default:
		ids := []string{*run}
		if *run == "all" {
			ids = exp.IDs()
		}
		for _, id := range ids {
			start := time.Now()
			out, err := exp.Run(id, *seed, !*full)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Printf("==== %s (%s) [%.1fs wall] ====\n%s\n", id, exp.Registry[id].Title, time.Since(start).Seconds(), out)
		}
	}
	return 0
}

// benchGrid is the canonical perf-tracking sweep: every scheme family the
// repo implements against the cross-traffic kinds that stress different
// parts of the stack, at two link rates. It exists so BENCH_runner.json
// is comparable across commits. -topology adds a topology axis (the
// default keeps the historical single-bottleneck grid). -churn swaps the
// cross-traffic axis for session-workload cells, benchmarking the
// scheduler under dense per-flow timer churn.
func benchGrid(seed int64, topos, churns, fluids []string) runner.Grid {
	g := runner.Grid{
		Base: runner.Scenario{
			RTTms: 50, BufferMs: 100, DurationSec: 30, Seed: seed,
		},
		RatesMbps:  []float64{96, 192},
		Schemes:    scheme.Specs("nimbus", "cubic", "bbr", "copa"),
		Topologies: topos,
		Churns:     churns,
		Fluids:     fluids,
		Crosses: []runner.Cross{
			{Kind: "none"},
			{Kind: "poisson", RateMbps: 48},
			{Kind: "cubic"},
		},
	}
	if len(churns) > 0 {
		// Session arrivals are the cross traffic in churn cells; the
		// cross axis would just run the same workload three times.
		g.Crosses = nil
	}
	return g
}

// runGridFile executes an arbitrary sweep grid from a JSON file — the
// same document POST /jobs accepts — either locally or on a nimbus-svc
// daemon. Spec-valued fields may use any accepted spelling:
// exp.CanonicalGrid rewrites them before anything runs, and an invalid
// spec exits 2.
func runGridFile(path, remote string, workers int, out string) int {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var g runner.Grid
	if err := json.Unmarshal(b, &g); err != nil {
		fmt.Fprintf(os.Stderr, "-grid %s: %v\n", path, err)
		return 2
	}
	if g, err = exp.CanonicalGrid(g); err != nil {
		fmt.Fprintf(os.Stderr, "-grid %s: %v\n", path, err)
		return 2
	}
	if remote != "" {
		return runRemote(remote, g, workers, out)
	}
	scs := g.Expand()
	fmt.Fprintf(os.Stderr, "grid %s: %d scenarios on %d workers\n", path, len(scs), effectiveWorkers(workers))
	rn := &runner.Runner{Workers: workers, OnProgress: runner.Progress(os.Stderr)}
	start := time.Now()
	rs := rn.Run(scs, exp.RunScenario)
	printResults(rs, time.Since(start).Seconds())
	return writeResults(out, rs)
}

// runRemote submits a grid to a nimbus-svc daemon, streams its per-cell
// progress to stderr, and saves the results document verbatim — the
// bytes the daemon emits are the bytes a local batch run would have
// written, which is what makes remote and local runs comparable with cmp.
func runRemote(base string, g runner.Grid, workers int, out string) int {
	ctx := context.Background()
	client := svc.NewClient(base)
	// Self-healing: back off on load-shed 429s and resume the event
	// stream across a daemon restart instead of failing the sweep.
	client.Retry = svc.DefaultRetry
	created, err := client.Submit(ctx, g, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "remote job %s: %d cells on %s\n", created.ID, created.Total, base)
	if err := client.StreamEvents(ctx, created.ID, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "event stream: %v\n", err)
	}
	raw, err := client.RawResults(ctx, created.ID)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var rs []runner.Result
	if err := json.Unmarshal(raw, &rs); err != nil {
		fmt.Fprintf(os.Stderr, "decoding daemon results: %v\n", err)
		return 1
	}
	if st, err := client.Status(ctx, created.ID); err == nil {
		fmt.Fprintf(os.Stderr, "remote job %s: %s — %d hit / %d miss / %d shared / %d errors in %.1fs\n",
			st.ID, st.State, st.Cells.Hit, st.Cells.Miss, st.Cells.Shared, st.Cells.Errors, st.ElapsedSec)
	}
	var wall float64
	for _, r := range rs {
		wall += r.WallSec
	}
	printResults(rs, wall)
	if out != "" {
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s (daemon response, verbatim)\n", out)
	}
	return 0
}

// printResults renders the shared per-scenario table plus the aggregate
// throughput line.
func printResults(rs []runner.Result, wall float64) {
	var events uint64
	fmt.Printf("%-36s %12s %10s %12s\n", "scenario", "events", "wall s", "events/s")
	for _, r := range rs {
		if r.Err != "" {
			fmt.Printf("%-36s ERROR: %s\n", r.Scenario.Name, r.Err)
			continue
		}
		events += r.Events
		fmt.Printf("%-36s %12d %10.2f %12.0f\n", r.Scenario.Name, r.Events, r.WallSec, r.EventsPerSec())
	}
	if wall > 0 {
		fmt.Printf("total: %d events in %.1fs wall (%.0f events/s aggregate)\n",
			events, wall, float64(events)/wall)
	}
}

// writeResults persists results locally (JSON or CSV by extension),
// reporting the path like every other emit path in this binary.
func writeResults(out string, rs []runner.Result) int {
	if out == "" {
		return 0
	}
	if err := runner.WriteFile(out, rs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
	return 0
}

func runBenchmark(seed int64, workers int, out, topo, churn, fluid, remote string) int {
	g, err := exp.CanonicalGrid(benchGrid(seed, scheme.SplitList(topo), scheme.SplitList(churn), scheme.SplitList(fluid)))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if remote != "" {
		return runRemote(remote, g, workers, out)
	}
	scs := g.Expand()
	fmt.Fprintf(os.Stderr, "benchmark: %d scenarios on %d workers\n", len(scs), effectiveWorkers(workers))
	start := time.Now()
	rn := &runner.Runner{Workers: workers, OnProgress: runner.Progress(os.Stderr)}
	rs := rn.Run(scs, exp.RunScenario)
	wall := time.Since(start).Seconds()

	for _, r := range rs {
		if r.Err != "" {
			fmt.Fprintf(os.Stderr, "scenario %s failed: %s\n", r.Scenario.Name, r.Err)
			return 1
		}
	}
	printResults(rs, wall)
	return writeResults(out, rs)
}

func effectiveWorkers(w int) int {
	if w == 0 {
		return runner.DefaultWorkers()
	}
	return w
}
