package exp

import (
	"fmt"
	"math"

	"nimbus/internal/core"
	"nimbus/internal/crosstraffic"
	"nimbus/internal/metrics"
	"nimbus/internal/netem"
	"nimbus/internal/runner"
	"nimbus/internal/sim"
)

// Workers is the worker-pool size every experiment grid in this package
// runs on: 0 means one worker per CPU, 1 forces sequential execution.
// cmd binaries set it from their -workers flag. Changing it never changes
// results — each grid cell owns its scheduler and random streams — only
// how many cells run at once.
var Workers = 0

// mapCells fans the n cells of an experiment grid out on the shared
// worker pool, returning results in cell order.
func mapCells[T any](n int, f func(i int) T) []T {
	return runner.Map(Workers, n, f)
}

// NetConfigFor translates a declarative scenario's link description.
func NetConfigFor(sc runner.Scenario) NetConfig {
	return NetConfig{
		RateMbps:  sc.RateMbps,
		RTT:       sim.FromSeconds(sc.RTTms / 1e3),
		Buffer:    sim.FromSeconds(sc.BufferMs / 1e3),
		AQM:       sc.AQM,
		PIETarget: sim.FromSeconds(sc.PIETargetMs / 1e3),
		Seed:      sc.EffectiveSeed(),
		Topology:  sc.Topology,
		Fluid:     sc.FluidCross,
	}
}

// ScheduleForScenario resolves the scenario's time-varying link axes into
// a rate schedule: a named/loaded trace, a parsed pattern spec anchored
// at the scenario's nominal rate, or nil for the constant link.
func ScheduleForScenario(sc runner.Scenario) (*netem.RateSchedule, error) {
	hasPattern := sc.RatePattern != "" && sc.RatePattern != "constant"
	if sc.LinkTrace != "" && hasPattern {
		return nil, fmt.Errorf("exp: scenario %q sets both LinkTrace (%s) and RatePattern (%s); pick one",
			sc.Name, sc.LinkTrace, sc.RatePattern)
	}
	if sc.LinkTrace != "" {
		return netem.LoadTrace(sc.LinkTrace)
	}
	if hasPattern {
		return netem.ParsePattern(sc.RatePattern, sc.RateMbps*1e6)
	}
	return nil, nil
}

// RigForScenario materializes a declarative scenario: the bottleneck
// (constant or time-varying), the scheme under test as a backlogged flow
// with a probe, and the scenario's cross traffic. The caller may attach
// extra instrumentation before running the rig to sc.DurationSec.
func RigForScenario(sc runner.Scenario) (*Rig, Scheme, *FlowProbe, error) {
	var scheme Scheme
	var probe *FlowProbe
	r, err := buildScenarioRig(sc, func(r *Rig) error {
		var mu core.MuEstimator
		if r.Link.Varying() {
			mu = LinkOracle{Link: r.Link}
		}
		var err error
		scheme, err = BuildScheme(sc.Scheme, r.MuBps, mu)
		if err != nil {
			return err
		}
		probe = r.AddFlow(scheme, sim.FromSeconds(sc.RTTms/1e3), 0)
		return nil
	})
	if err != nil {
		return nil, Scheme{}, nil, err
	}
	return r, scheme, probe, nil
}

// buildScenarioRig is the prelude every scenario runner shares. It
// resolves the scenario's link and rate schedule, validates the topology
// and fluid specs up front (so a malformed spec is a scenario error, not
// a panic out of NewRig), and builds the rig. addFlows then attaches the
// flows under test, and the scenario's cross traffic goes on last at
// CrossRTTms (default: the scenario RTT). That order is part of the
// results: flows split the rig's random streams before the cross
// traffic does.
func buildScenarioRig(sc runner.Scenario, addFlows func(r *Rig) error) (*Rig, error) {
	cfg := NetConfigFor(sc)
	sched, err := ScheduleForScenario(sc)
	if err != nil {
		return nil, err
	}
	cfg.Schedule = sched
	if _, err := netem.ParseTopology(sc.Topology); err != nil {
		return nil, err
	}
	if _, err := crosstraffic.ParseFluidSpec(sc.FluidCross); err != nil {
		return nil, err
	}
	r := NewRig(cfg)
	if err := addFlows(r); err != nil {
		return nil, err
	}
	crossRTT := sim.FromSeconds(sc.RTTms / 1e3)
	if sc.CrossRTTms > 0 {
		crossRTT = sim.FromSeconds(sc.CrossRTTms / 1e3)
	}
	if err := AddCross(r, sc.Cross, sc.CrossRateMbps*1e6, crossRTT); err != nil {
		return nil, err
	}
	return r, nil
}

// CrossElastic reports whether a cross-traffic kind backs off under
// congestion — the ground truth Nimbus's mode decision is scored against.
func CrossElastic(kind string) bool {
	switch kind {
	case "cubic", "reno", "trace":
		return true
	}
	return false // none, poisson, cbr, video*: inelastic (or no) cross traffic
}

// RunScenario is the standard runner.RunFunc: it materializes the
// scenario, runs it to its horizon, and reports the measurements every
// sweep wants — throughput, queueing delay, utilization, drops, and (for
// Nimbus schemes) mode telemetry including time-weighted mode accuracy
// against the cross traffic's known elasticity. The engine fills in wall
// time.
func RunScenario(sc runner.Scenario) runner.Result {
	if sc.Churn != "" {
		return RunChurnScenario(sc)
	}
	if sc.FlowMix != "" {
		return RunFlowMixScenario(sc)
	}
	r, scheme, probe, err := RigForScenario(sc)
	if err != nil {
		return runner.Result{Scenario: sc, Err: err.Error()}
	}
	end := sim.FromSeconds(sc.DurationSec)
	var mt ModeTracker
	if scheme.Nimbus != nil {
		truth := CrossElastic(sc.Cross)
		mt.Track(scheme.Nimbus, func(sim.Time) bool { return truth }, end/4)
	}
	r.Sch.RunUntil(end)

	m := linkMetrics(r, probe.MeanMbps(0, end))
	addQdelayMetrics(m, probe.Delay)
	addModeMetrics(m, scheme.Nimbus, &mt)
	dropNonFinite(m)
	return runner.Result{Scenario: sc, Metrics: m, Events: r.Sch.Executed}
}

// RunFlowMixScenario is RunScenario for scenarios whose FlowMix is set:
// the mix's heterogeneous flow set replaces the single scheme under
// test, and the result carries per-flow throughput (flowNN_mbps) plus
// fairness of the allocation (jain, jsd_uniform) alongside the usual
// link-level metrics. The fairness window is the interval where every
// flow in the mix is active.
func RunFlowMixScenario(sc runner.Scenario) runner.Result {
	fail := func(err error) runner.Result {
		return runner.Result{Scenario: sc, Err: err.Error()}
	}
	specs, err := ParseFlowMix(sc.FlowMix)
	if err != nil {
		return fail(err)
	}
	var flows []*Flow
	var sharedDelay *metrics.DelayRecorder
	r, err := buildScenarioRig(sc, func(r *Rig) error {
		var err error
		flows, err = r.AddFlowSpecs(specs...)
		if err != nil {
			return err
		}
		// Aggregate queueing delay comes from one shared recorder fed by
		// every flow's deliveries: per-flow recorders are reservoirs over
		// their own flow, so concatenating their samples would weight
		// flows equally once a busy flow hits the reservoir cap, instead
		// of by packets actually delivered.
		sharedDelay = metrics.NewDelayRecorder(0, r.Rng.Split("mix-dlyrec"))
		for _, f := range flows {
			addDeliverTap(f.Probe.Sender, func(p *netem.Packet, now sim.Time) {
				sharedDelay.Add(p.QueueDelay)
			})
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	end := sim.FromSeconds(sc.DurationSec)
	r.Sch.RunUntil(end)

	st := FlowStats(flows, end)
	m := linkMetrics(r, st.AggMbps)
	m["jain"] = st.Jain
	m["jsd_uniform"] = st.JSDUniform
	for i := range flows {
		m[fmt.Sprintf("flow%02d_mbps", i)] = st.PerFlowMbps[i]
	}
	if len(sharedDelay.Samples()) > 0 {
		addQdelayMetrics(m, sharedDelay)
	}
	dropNonFinite(m)
	return runner.Result{Scenario: sc, Metrics: m, Events: r.Sch.Executed}
}

// linkMetrics starts the metric map every scenario runner shares:
// aggregate throughput, the bottleneck's utilization and drops, and the
// per-hop decomposition on multi-hop topologies.
func linkMetrics(r *Rig, meanMbps float64) map[string]float64 {
	m := map[string]float64{
		"mean_mbps":       meanMbps,
		"utilization":     r.Link.Utilization(),
		"dropped_packets": float64(r.Link.DroppedPackets),
	}
	// Fluid-path runs additionally report the background aggregate's
	// achieved rate and loss; emitted only when fluid is on, so exact
	// per-packet results (and their JSON) are unchanged.
	if r.Link.FluidEnabled() {
		delivered, dropped := r.Link.FluidStats()
		if now := r.Sch.Now(); now > 0 {
			m["fluid_mbps"] = delivered * 8 / now.Seconds() / 1e6
		}
		if total := delivered + dropped; total > 0 {
			m["fluid_drop_pct"] = dropped / total * 100
		}
	}
	hopMetrics(m, r)
	return m
}

// addModeMetrics records a Nimbus flow's mode telemetry: mode switches,
// the last η, whether it ended in competitive mode, and its
// time-weighted mode accuracy against mt's ground truth. Non-Nimbus
// schemes (n == nil) record nothing.
func addModeMetrics(m map[string]float64, n *core.Nimbus, mt *ModeTracker) {
	if n == nil {
		return
	}
	m["mode_switches"] = float64(n.ModeSwitches)
	m["eta"] = n.LastEta()
	mode := 0.0
	if n.Mode() == core.ModeCompetitive {
		mode = 1
	}
	m["competitive_mode"] = mode
	m["mode_accuracy"] = mt.Acc.Accuracy()
}

// addQdelayMetrics records a delay recorder's mean/p50/p95 summary.
func addQdelayMetrics(m map[string]float64, d *metrics.DelayRecorder) {
	dMean, dQs := d.MeanQuantiles(0.5, 0.95)
	m["qdelay_mean_ms"] = dMean
	m["qdelay_p50_ms"] = dQs[0]
	m["qdelay_p95_ms"] = dQs[1]
}

// dropNonFinite removes non-finite metrics: a run that delivers nothing
// (reachable on dark/outage schedules) has no delay samples and NaN
// summaries, and one such cell must not abort JSON emission for the
// whole sweep.
func dropNonFinite(m map[string]float64) {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(m, k)
		}
	}
}

// hopMetrics decomposes the path into per-hop measurements on multi-hop
// topologies: each hop's utilization, drops, and mean queueing delay land
// as hopNN_<name>_* metrics. Single-bottleneck runs emit nothing extra,
// so pre-topology results (and their JSON) are unchanged.
func hopMetrics(m map[string]float64, r *Rig) {
	links := r.Net.Links()
	if len(links) <= 1 {
		return
	}
	for i, l := range links {
		prefix := fmt.Sprintf("hop%02d_%s_", i, l.Name)
		m[prefix+"util"] = l.Utilization()
		// The discipline's own counter, so CoDel's dequeue-time drops
		// (invisible to Link.DroppedPackets) are included.
		m[prefix+"drops"] = float64(l.Q.DropCount())
		m[prefix+"qdelay_ms"] = l.MeanQueueDelay().Millis()
	}
}

// RunSweep expands the grid and executes it on the pool, reporting
// progress through onProgress (which may be nil).
func RunSweep(g runner.Grid, workers int, onProgress func(done, total int, r runner.Result)) []runner.Result {
	rn := &runner.Runner{Workers: workers, OnProgress: onProgress}
	return rn.Run(g.Expand(), RunScenario)
}
