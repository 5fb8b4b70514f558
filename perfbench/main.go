// Command perfbench is the repository benchmark. It drives the program
// only through its public functions — runner.Runner, the exp scenario
// builders, sim.Scheduler and the svc server, store and client — on four
// workloads:
//
//	sweep     the canonical nimbus-bench -benchmark grid (packet path)
//	detector  multi-Nimbus flow mixes (detector FFT path)
//	churn     session churn on the timer wheel (workload, GC)
//	svc       a closed loop of 2 clients against an in-process nimbus-svc
//
// With --trace 0 it measures the end-to-end metrics with tracing off; with
// --trace 1 it alternates untraced rounds with traced ones and reports
// per-layer metrics from spans, counters read at layer boundaries and a
// CPU profile folded by package. Either way the last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics every --trace 0 run prints, on every workload.
// BENCHMARK.json lists the same names and units (TestBenchmarkJSONMatches).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"jobs_per_s", "1/s"},
	{"hit_job_p50_ms", "ms"},
	{"hit_job_p95_ms", "ms"},
	{"miss_job_p50_ms", "ms"},
	{"miss_job_p95_ms", "ms"},
}

// layerCPU are the layers a traced run's CPU profile is folded into, as
// <layer>.cpu_share. Layers are Go packages: nimbus/internal/<layer>,
// plus runtime, math, math/rand (rand), net/http (http) and
// encoding/json (json); everything else is "other".
var layerCPU = []string{
	"runner", "exp", "sim", "netem", "transport", "cc", "core", "fft", "math",
	"crosstraffic", "metrics", "stats", "workload", "rand", "runtime", "svc",
	"http", "json", "other",
}

// perLayer are the metrics every --trace 1 run prints, on every workload;
// a layer a workload does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace_overhead_share", "share"},
		{"runner.busy_share", "share"},
		{"runner.tail_idle_s", "s"},
		{"runner.cell_ms_max", "ms"},
		{"exp.rig_build_ms", "ms"},
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.pending_mean", "count"},
		{"sim.pending_max", "count"},
		{"netem.pkts_delivered", "count"},
		{"netem.pkts_dropped", "count"},
		{"transport.timeouts", "count"},
		{"core.ticks", "count"},
		{"core.mode_switches", "count"},
		{"core.ns_per_tick", "ns"},
		{"workload.flows_started", "count"},
		{"workload.flows_completed", "count"},
		{"workload.ns_per_flow", "ns"},
		{"runtime.alloc_mb", "MiB"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_share", "share"},
		{"runtime.heap_peak_mb", "MiB"},
		{"svc.mem_hits", "count"},
		{"svc.disk_hits", "count"},
		{"svc.misses", "count"},
		{"svc.shared", "count"},
		{"svc.hit_ratio", "share"},
		{"svc.submit_ms_p50", "ms"},
		{"svc.submit_ms_p99", "ms"},
		{"svc.results_ms_p50", "ms"},
		{"svc.results_ms_p99", "ms"},
		{"svc.run_ms_p50", "ms"},
		{"svc.overhead_ms_p50", "ms"},
		{"svc.replay_s", "s"},
		{"svc.client_retries", "count"},
		{"svc.disk_errors", "count"},
		{"svc.jobs_shed", "count"},
	}
	for _, l := range layerCPU {
		defs = append(defs, metricDef{l + ".cpu_share", "share"})
	}
	return defs
}()

// options are one invocation's settings.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// OutDir receives the traced run's spans, layer file and CPU
	// profiles.
	OutDir string
}

// report is the final line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run hands back: raw metric values by name
// plus the operation counts.
type result struct {
	Attempted, Failed int
	Values            map[string]float64
	// RoundWalls are the untraced rounds' wall times, in order.
	RoundWalls []float64
}

func main() {
	os.Exit(run(os.Args[1:], fullSize, os.Stdout))
}

// run executes one invocation at size sz, printing the JSON line to
// stdout, and returns the exit code.
func run(args []string, sz size, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.Workload, "workload", "", "workload: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&o.Seed, "seed", 1, "workload seed: generates the grids the program is given")
	fs.Float64Var(&o.Seconds, "seconds", 25, "measurement budget in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	fs.StringVar(&o.OutDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for spans, layer file and profiles")
	writeExpected := fs.String("write-expected", "", "write the workload's per-cell results at --seed into this directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.Trace = *traceFlag == 1
	if o.Seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if *writeExpected != "" {
		if err := writeExpectedFile(*writeExpected, o.Workload, o.Seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := runWorkload(o, sz)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep, err := makeReport(res, o.Trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printSummary(o, rep, res.RoundWalls)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// roundStats is what one untraced round contributes to the end-to-end
// metrics.
type roundStats struct {
	Wall, CPU float64 // seconds
	Jobs      int
	// Hit and Miss are the latencies (ms) of jobs served entirely from
	// cache and of jobs that simulated.
	Hit, Miss []float64
}

// setRoundMetrics sets the per-round end-to-end metrics, each the median
// over untraced rounds of its value in one round, so host noise that
// slows a minority of rounds does not move it.
func setRoundMetrics(v map[string]float64, rounds []roundStats) {
	per := map[string][]float64{}
	add := func(k string, x float64) { per[k] = append(per[k], x) }
	for _, r := range rounds {
		add("wall_s", r.Wall)
		add("cpu_s", r.CPU)
		add("jobs_per_s", float64(r.Jobs)/r.Wall)
		add("hit_job_p50_ms", quantile(r.Hit, 0.50))
		add("hit_job_p95_ms", quantile(r.Hit, 0.95))
		add("miss_job_p50_ms", quantile(r.Miss, 0.50))
		add("miss_job_p95_ms", quantile(r.Miss, 0.95))
	}
	for k, xs := range per {
		v[k] = median(xs)
	}
}

// runWorkload dispatches to the named workload at the given size.
func runWorkload(o options, sz size) (result, error) {
	if o.Workload == "svc" {
		return runSvc(o, sz)
	}
	def, ok := batchWorkloads[o.Workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have %v)", o.Workload, workloadNames())
	}
	return runBatch(o, def, sz)
}

func workloadNames() []string {
	names := []string{"svc"}
	for n := range batchWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// makeReport selects the metric set the run mode prints and checks every
// value is present and finite.
func makeReport(res result, traced bool) (report, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	rep := report{
		Correct:   res.Failed == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	if rep.Attempted < 1 {
		return rep, fmt.Errorf("no operation attempted")
	}
	for _, d := range defs {
		v, ok := res.Values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return rep, fmt.Errorf("metric %s missing or not finite (%v)", d.Name, v)
		}
		rep.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return rep, nil
}

// printSummary writes a human-readable table to standard error,
// including failed_share (failed over attempted operations), which the
// JSON line carries as its failed and attempted fields.
func printSummary(o options, rep report, walls []float64) {
	mode := "end-to-end"
	if o.Trace {
		mode = "per-layer"
	}
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%g %s (%s, GOMAXPROCS=%d)\n",
		o.Workload, o.Seed, o.Seconds, mode, time.Now().UTC().Format(time.RFC3339), runtime.GOMAXPROCS(0))
	fmt.Fprintf(os.Stderr, "  untraced rounds (s): %.3f\n", walls)
	fmt.Fprintf(os.Stderr, "  %-28s %14.6f %s  (%d of %d)\n", "failed_share",
		float64(rep.Failed)/float64(rep.Attempted), "share", rep.Failed, rep.Attempted)
	defs := endToEnd
	if o.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-28s %14.6f %s\n", d.Name, rep.Metrics[d.Name].Value, d.Unit)
	}
}
