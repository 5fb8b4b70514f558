package main

import (
	"nimbus/internal/exp"
	"nimbus/internal/runner"
	"nimbus/internal/scheme"
	"nimbus/internal/workload"
)

// size scales the workloads: fullSize is what the benchmark measures,
// tinySize lets the tests run every workload in about a second.
type size struct {
	// SimScale multiplies every simulated cell duration.
	SimScale float64
	// SetupReps is how many times set-up is repeated; setup_s is the
	// median.
	SetupReps int
	// SvcPool is the number of grids the svc hit jobs draw from, and
	// SvcMemEntries the store's memory tier (cells), smaller than the
	// pool's 4 cells per grid so hits split between memory and disk.
	SvcPool, SvcMemEntries int
	// SvcRoundJobs is the number of jobs in one svc round (both clients).
	SvcRoundJobs int
	// SvcCellSec is the simulated duration of an svc cell.
	SvcCellSec float64
}

var (
	fullSize = size{SimScale: 1, SetupReps: 15, SvcPool: 128, SvcMemEntries: 256, SvcRoundJobs: 600, SvcCellSec: 1}
	tinySize = size{SimScale: 1.0 / 60, SetupReps: 2, SvcPool: 4, SvcMemEntries: 8, SvcRoundJobs: 8, SvcCellSec: 0.1}
)

// workers is the runner pool size of the batch workloads, and the number
// of svc clients: the machine the benchmark was tuned on has 2 cores.
const workers = 2

// batchDef is one batch workload: a fixed grid of cells run on a
// runner.Runner with exp.RunScenario.
type batchDef struct {
	Name string
	Grid func(seed int64) runner.Grid
}

var batchWorkloads = map[string]batchDef{
	// sweep is the canonical nimbus-bench -benchmark grid: 24 cells whose
	// cost is the packet path (scheduler heap, links, transport). It keeps
	// continuity with BENCH_runner.json.
	"sweep": {Name: "sweep", Grid: func(seed int64) runner.Grid {
		return runner.Grid{
			Base:      runner.Scenario{RTTms: 50, BufferMs: 100, DurationSec: 30, Seed: seed},
			RatesMbps: []float64{96, 192},
			Schemes:   scheme.Specs("nimbus", "cubic", "bbr", "copa"),
			Crosses: []runner.Cross{
				{Kind: "none"},
				{Kind: "poisson", RateMbps: 48},
				{Kind: "cubic"},
			},
		}
	}},
	// detector runs several Nimbus flows per cell at low link rates, so
	// the elasticity detector (FFT every 10 ms per flow) rather than the
	// packet path dominates: 18 cells.
	"detector": {Name: "detector", Grid: func(seed int64) runner.Grid {
		return runner.Grid{
			Base:      runner.Scenario{RTTms: 50, BufferMs: 100, DurationSec: 60, Seed: seed},
			RatesMbps: []float64{24, 48},
			FlowMixes: canonicalMixes("nimbus", "nimbus*2+cubic", "nimbus*4"),
			Crosses: []runner.Cross{
				{Kind: "none"},
				{Kind: "poisson", RateMbps: 8},
				{Kind: "cubic"},
			},
		}
	}},
	// churn is nimbus-bench -benchmark -churn "web(load=24),bulk(load=48)":
	// 16 cells of thousands of short sessions each, the only workload on
	// the timer wheel and the only one using internal/workload.
	"churn": {Name: "churn", Grid: func(seed int64) runner.Grid {
		return runner.Grid{
			Base:      runner.Scenario{RTTms: 50, BufferMs: 100, DurationSec: 30, Seed: seed},
			RatesMbps: []float64{96, 192},
			Schemes:   scheme.Specs("nimbus", "cubic", "bbr", "copa"),
			Churns: []string{
				workload.MustParseSpec("web(load=24)").String(),
				workload.MustParseSpec("bulk(load=48)").String(),
			},
		}
	}},
}

// canonicalMixes renders flow mixes in the canonical form the CLIs
// submit, since the strings enter scenario keys verbatim.
func canonicalMixes(mixes ...string) []string {
	out := make([]string, len(mixes))
	for i, m := range mixes {
		fss, err := exp.ParseFlowMix(m)
		if err != nil {
			panic(err) // the mixes above are constants
		}
		out[i] = exp.FormatFlowMix(fss)
	}
	return out
}

// svcGrid is one svc job: 4 one-second cells (2 schemes x 2 rates)
// against Poisson cross traffic. The grid seed makes it a distinct job.
func svcGrid(seed int64, sz size) runner.Grid {
	return runner.Grid{
		Base: runner.Scenario{
			RTTms: 50, BufferMs: 100, DurationSec: sz.SvcCellSec, Seed: seed,
			Cross: "poisson", CrossRateMbps: 8,
		},
		Schemes:   scheme.Specs("nimbus", "cubic"),
		RatesMbps: []float64{24, 48},
	}
}

// scaled returns the grid's cells with durations multiplied by the size's
// SimScale.
func scaled(g runner.Grid, sz size) []runner.Scenario {
	g.Base.DurationSec *= sz.SimScale
	return g.Expand()
}
