package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"nimbus/internal/exp"
	"nimbus/internal/runner"
)

// runTiny runs one invocation at the tiny size and decodes its last line.
func runTiny(t *testing.T, workload string, trace int) report {
	t.Helper()
	var out bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1",
		"--trace", fmt.Sprint(trace), "--out", t.TempDir()}
	if code := run(args, tinySize, &out); code != 0 {
		t.Fatalf("%s --trace %d: exit code %d", workload, trace, code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s --trace %d: last line is not the report: %v", workload, trace, err)
	}
	return rep
}

// TestEveryMetricPrinted runs every workload at the tiny size, untraced
// and traced, and checks the report names every metric with its unit and
// that no operation failed — including the traced rounds, which are
// compared cell by cell with the untraced ones.
func TestEveryMetricPrinted(t *testing.T) {
	for _, w := range workloadNames() {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			rep := runTiny(t, w, trace)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s --trace %d: correct=%v failed=%d attempted=%d", w, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s --trace %d: %d metrics, want %d", w, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s --trace %d: metric %s = %+v, want unit %s", w, trace, d.Name, m, d.Unit)
				}
			}
			if trace == 0 {
				for _, d := range endToEnd {
					if rep.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.Name, rep.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

// TestPerturbedExpectedFails shows that a cell differing from its
// expected output, in events or in a metric, counts as failed.
func TestPerturbedExpectedFails(t *testing.T) {
	scs := scaled(batchWorkloads["sweep"].Grid(1), tinySize)
	rs := runRound(scs, false, &tracer{}).Results
	want := make([]cellOutput, len(rs))
	for i, r := range rs {
		want[i] = outputOf(r)
	}
	if n := (&checker{want: want}).failures(rs); n != 0 {
		t.Fatalf("unperturbed: %d failures, want 0", n)
	}

	want[3].Events++
	if n := (&checker{want: want}).failures(rs); n != 1 {
		t.Errorf("events perturbed: %d failures, want 1", n)
	}
	want[3].Events--

	m := map[string]float64{}
	for k, v := range want[5].Metrics {
		m[k] = v
	}
	m["mean_mbps"] += 1e-9
	want[5].Metrics = m
	if n := (&checker{want: want}).failures(rs); n != 1 {
		t.Errorf("metric perturbed: %d failures, want 1", n)
	}
}

// TestSvcJobFailed checks the svc comparison: wall-clock time is
// ignored, any other byte, an error or a retry fails the job.
func TestSvcJobFailed(t *testing.T) {
	g := svcGrid(5, tinySize)
	local, err := localResults([]runner.Grid{g})
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	rs := (&runner.Runner{Workers: 1}).Run(g.Expand(), runScenarioSlow)
	if err := runner.WriteJSON(&body, rs); err != nil {
		t.Fatal(err)
	}
	j := job{Seed: 5, Body: body.Bytes()}
	if jobFailed(j, local[5]) {
		t.Fatal("identical results with different wall-clock times counted as failed")
	}
	perturbed := bytes.Replace(j.Body, []byte(`"events": `), []byte(`"events": 1`), 1)
	if !jobFailed(job{Seed: 5, Body: perturbed}, local[5]) {
		t.Error("perturbed result bytes not counted as failed")
	}
	if !jobFailed(job{Seed: 5, Body: j.Body, Retries: 1}, local[5]) {
		t.Error("retried job not counted as failed")
	}
	if !jobFailed(job{Seed: 5, Body: j.Body}, nil) {
		t.Error("job without a reference not counted as failed")
	}
}

// runScenarioSlow is exp.RunScenario with a wall-clock time no real run
// would report, so the comparison must ignore it.
func runScenarioSlow(sc runner.Scenario) runner.Result {
	r := exp.RunScenario(sc)
	r.WallSec = 12345.678
	return r
}

// TestExpectedFilesMatchGrids checks every checked-in expected file
// covers its workload's grid at that seed, cell for cell.
func TestExpectedFilesMatchGrids(t *testing.T) {
	for name, def := range batchWorkloads {
		for _, seed := range expectedSeeds {
			want, err := loadExpected(name, seed)
			if err != nil || want == nil {
				t.Fatalf("%s seed %d: no expected results (%v)", name, seed, err)
			}
			scs := def.Grid(seed).Expand()
			if len(want) != len(scs) {
				t.Fatalf("%s seed %d: %d expected cells for %d grid cells", name, seed, len(want), len(scs))
			}
			for i, sc := range scs {
				if want[i].Key != sc.Key() {
					t.Errorf("%s seed %d cell %d: expected key %q, grid key %q", name, seed, i, want[i].Key, sc.Key())
				}
			}
		}
	}
}

// TestSweepMatchesBenchRunner checks the sweep's seed-1 expected results
// reproduce BENCH_runner.json's per-cell event counts.
func TestSweepMatchesBenchRunner(t *testing.T) {
	b, err := os.ReadFile("../BENCH_runner.json")
	if err != nil {
		t.Skip("BENCH_runner.json not present:", err)
	}
	var bench []runner.Result
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	want, err := loadExpected("sweep", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(bench) {
		t.Fatalf("%d expected cells, BENCH_runner.json has %d", len(want), len(bench))
	}
	var total uint64
	for i := range want {
		if want[i].Key != bench[i].Scenario.Key() || want[i].Events != bench[i].Events {
			t.Errorf("cell %d: %s %d events, BENCH_runner.json %s %d", i, want[i].Key, want[i].Events, bench[i].Scenario.Key(), bench[i].Events)
		}
		total += want[i].Events
	}
	if total != 28_370_893 {
		t.Errorf("sweep seed 1: %d events, want 28370893", total)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and this program's
// workloads and metric tables in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	same := func(what string, got, want any) {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("BENCHMARK.json %s = %v, program has %v", what, got, want)
		}
	}
	sort.Strings(names)
	same("workloads", names, workloadNames())
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestFoldTop(t *testing.T) {
	top := `File: perfbench
Type: cpu
      flat  flat%   sum%        cum   cum%
     2.42s 23.00% 23.00%      3.62s 34.41%  nimbus/internal/sim.eventHeap.siftDown
     1.00s 10.00% 33.00%      1.09s 10.36%  nimbus/internal/sim.timerLess (inline)
     0.50s  5.00% 38.00%      0.50s  5.00%  runtime.mallocgc
         0     0%   100%      0.01s 0.095%  internal/sync.(*HashTrieMap[go.shape.struct { net/netip.isV6 bool }]).All
`
	got, err := foldTop(top)
	if err != nil {
		t.Fatal(err)
	}
	if d := got["sim"] - 0.33; d > 1e-12 || d < -1e-12 || got["runtime"] != 0.05 || got["other"] != 0 {
		t.Errorf("foldTop = %v", got)
	}
	if _, err := foldTop("no table"); err == nil {
		t.Error("foldTop accepted output without a table")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"nimbus/internal/sim.eventHeap.siftDown":                                    "sim",
		"nimbus/internal/sim.(*Scheduler).schedule":                                 "sim",
		"nimbus/internal/exp.NewRig.(*Topology).AddLink.func1":                      "exp",
		"nimbus/internal/scheme.Parse":                                              "other",
		"runtime.mallocgc":                                                          "runtime",
		"internal/runtime/maps.ctrlGroup.matchFull (inline)":                        "runtime",
		"gcWriteBarrier":                                                            "runtime",
		"math.archHypot":                                                            "math",
		"math/rand.(*rngSource).Uint64 (inline)":                                    "rand",
		"math/cmplx.Abs (inline)":                                                   "other",
		"net/http.(*conn).serve":                                                    "http",
		"encoding/json.(*encodeState).marshal":                                      "json",
		"main.runTracedCell":                                                        "other",
		"slices.partitionOrdered[go.shape.float64]":                                 "other",
		"internal/sync.(*HashTrieMap[go.shape.struct { net/netip.isV6 bool }]).All": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
