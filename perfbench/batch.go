package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"nimbus/internal/exp"
	"nimbus/internal/runner"
)

// round is one execution of a batch workload's fixed cell set.
type round struct {
	Traced  bool
	Wall    time.Duration
	CPU     float64
	Results []runner.Result
	// Done is each cell's completion time since the round started: every
	// cell is submitted at the start, so this is its job latency.
	Done   []time.Duration
	Counts cellCounts
}

// runRound runs every cell on a runner.Runner with `workers` workers:
// exp.RunScenario when untraced, runTracedCell when traced.
func runRound(scs []runner.Scenario, traced bool, tr *tracer) round {
	rd := round{Traced: traced, Done: make([]time.Duration, len(scs))}
	counts := make([]cellCounts, len(scs))
	cpu0 := cpuSeconds()
	start := time.Now()
	rn := &runner.Runner{Workers: workers, OnCell: func(i int, _ runner.Result) { rd.Done[i] = time.Since(start) }}
	if traced {
		id := tr.newID()
		rd.Results = rn.RunGrid(context.Background(), scs, func(i int, sc runner.Scenario) runner.Result {
			r, c := runTracedCell(sc, tr, id, id)
			counts[i] = c
			return r
		})
		tr.add(span{ID: id, Trace: id, Name: "workload", Start: start, End: time.Now()})
	} else {
		rd.Results = rn.Run(scs, exp.RunScenario)
	}
	rd.Wall = time.Since(start)
	rd.CPU = cpuSeconds() - cpu0
	for _, c := range counts {
		rd.Counts.add(c)
	}
	return rd
}

// runBatch runs a batch workload: set-up repeated SetupReps times, then
// rounds of the whole grid until the time budget is spent. A traced run
// alternates untraced and traced rounds, starting untraced.
func runBatch(o options, def batchDef, sz size) (result, error) {
	var setup []float64
	for i := 0; i < sz.SetupReps; i++ {
		runtime.GC() // start every set-up from a collected heap
		t0 := time.Now()
		for _, sc := range scaled(def.Grid(o.Seed), sz) {
			if _, err := buildCell(sc); err != nil {
				return result{}, fmt.Errorf("%s: set-up: %v", sc.Name, err)
			}
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	scs := scaled(def.Grid(o.Seed), sz)

	var chk checker
	if sz == fullSize {
		want, err := loadExpected(def.Name, o.Seed)
		if err != nil {
			return result{}, err
		}
		chk.want = want
	}

	tr := &tracer{}
	res := result{Values: map[string]float64{}}
	pr := &probe{o: o}
	var rounds []round
	err := forRounds(o, func(k int, traced bool) error {
		var rd round
		if traced {
			if err := pr.traced(k, func() { rd = runRound(scs, true, tr) }); err != nil {
				return err
			}
		} else {
			rd = runRound(scs, false, tr)
		}
		res.Attempted += len(scs)
		res.Failed += chk.failures(rd.Results)
		rounds = append(rounds, rd)
		return nil
	})
	if err != nil {
		return result{}, err
	}

	var stats []roundStats
	for _, rd := range rounds {
		if rd.Traced {
			continue
		}
		// Batch cells are never cached: every job simulates, so the hit
		// and miss metrics both describe the one latency distribution.
		lat := make([]float64, len(rd.Done))
		for i, d := range rd.Done {
			lat[i] = ms(d)
		}
		stats = append(stats, roundStats{Wall: rd.Wall.Seconds(), CPU: rd.CPU, Jobs: len(rd.Done), Hit: lat, Miss: lat})
		res.RoundWalls = append(res.RoundWalls, rd.Wall.Seconds())
	}
	v := res.Values
	setRoundMetrics(v, stats)
	v["setup_s"] = median(setup)
	v["peak_rss_mb"] = peakRSSMiB()

	if o.Trace {
		if err := batchLayers(v, rounds, pr); err != nil {
			return result{}, err
		}
		if err := writeTrace(o, tr, v); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

// batchLayers derives the per-layer metrics of a traced batch run from
// its traced rounds: counts are per round (identical in every round),
// times are medians over traced rounds.
func batchLayers(v map[string]float64, rounds []round, pr *probe) error {
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	var uWall, tWall, busy, tail, cellMax []float64
	var cnt cellCounts
	var buildNs, simNs float64
	for _, rd := range rounds {
		if !rd.Traced {
			uWall = append(uWall, rd.Wall.Seconds())
			continue
		}
		tWall = append(tWall, rd.Wall.Seconds())
		buildNs += float64(rd.Counts.BuildNs)
		simNs += float64(rd.Counts.SimNs)
		var sum, longest float64
		for _, r := range rd.Results {
			sum += r.WallSec
			longest = max(longest, r.WallSec)
		}
		busy = append(busy, sum/(float64(workers)*rd.Wall.Seconds()))
		cellMax = append(cellMax, longest*1e3)
		// Worker-seconds idle after the queue drained: the workers'
		// last cells are the latest `workers` completions.
		done := append([]time.Duration(nil), rd.Done...)
		sort.Slice(done, func(i, j int) bool { return done[i] > done[j] })
		idle := 0.0
		for i := 0; i < workers && i < len(done); i++ {
			idle += (rd.Wall - done[i]).Seconds()
		}
		tail = append(tail, idle)
		cnt = rd.Counts // the same in every round, as the results are
	}
	n := float64(len(tWall))
	cells := float64(len(rounds[0].Results))
	v["trace_overhead_share"] = median(tWall)/median(uWall) - 1
	v["runner.busy_share"] = median(busy)
	v["runner.tail_idle_s"] = median(tail)
	v["runner.cell_ms_max"] = median(cellMax)
	v["exp.rig_build_ms"] = buildNs / 1e6 / (cells * n)
	v["sim.events"] = float64(cnt.Events)
	if cnt.Events > 0 {
		v["sim.ns_per_event"] = simNs / n / float64(cnt.Events)
	}
	if cnt.PendingN > 0 {
		v["sim.pending_mean"] = cnt.PendingSum / cnt.PendingN
	}
	v["sim.pending_max"] = float64(cnt.PendingMax)
	v["netem.pkts_delivered"] = float64(cnt.Delivered)
	v["netem.pkts_dropped"] = float64(cnt.Dropped)
	v["transport.timeouts"] = float64(cnt.Timeouts)
	v["core.ticks"] = float64(cnt.Ticks)
	v["core.mode_switches"] = float64(cnt.ModeSwitches)
	v["workload.flows_started"] = float64(cnt.FlowsStarted)
	v["workload.flows_completed"] = float64(cnt.FlowsCompleted)
	if cnt.FlowsStarted > 0 {
		v["workload.ns_per_flow"] = simNs / n / float64(cnt.FlowsStarted)
	}
	return pr.finish(v, float64(cnt.Ticks)*n)
}
