package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nimbus/internal/core"
	"nimbus/internal/exp"
	"nimbus/internal/metrics"
	"nimbus/internal/netem"
	"nimbus/internal/runner"
	"nimbus/internal/sim"
	"nimbus/internal/transport"
	"nimbus/internal/workload"
)

// A cell is one scenario built for a traced run. The three builders
// below follow exp.RunScenario, exp.RunFlowMixScenario and
// exp.RunChurnScenario call for call — the same random-stream splits in
// the same order — but keep hold of the rig, the Nimbus instances and the
// senders, so the traced run can step the scheduler, hook OnTick and read
// counters. The traced run checks every cell's result against the
// untraced exp.RunScenario result, so any divergence shows as a failure.
type cell struct {
	sc      runner.Scenario
	rig     *exp.Rig
	end     sim.Time
	nimbus  []*core.Nimbus
	senders []*transport.Sender
	ticks   uint64
	// finish computes the scenario's result metrics after the run.
	finish func() map[string]float64
	gen    *workload.Generator
}

// buildCell builds the scenario's rig, flows and cross traffic without
// running it.
func buildCell(sc runner.Scenario) (*cell, error) {
	c := &cell{sc: sc, end: sim.FromSeconds(sc.DurationSec)}
	var err error
	switch {
	case sc.Churn != "":
		err = c.buildChurn()
	case sc.FlowMix != "":
		err = c.buildFlowMix()
	default:
		err = c.buildSingle()
	}
	if err != nil {
		return nil, err
	}
	for _, n := range c.nimbus {
		prev := n.OnTick
		n.OnTick = func(t core.Telemetry) {
			c.ticks++
			if prev != nil {
				prev(t)
			}
		}
	}
	return c, nil
}

func (c *cell) buildSingle() error {
	sc := c.sc
	r, scheme, probe, err := exp.RigForScenario(sc)
	if err != nil {
		return err
	}
	c.rig = r
	c.senders = []*transport.Sender{probe.Sender}
	var mt exp.ModeTracker
	if scheme.Nimbus != nil {
		c.nimbus = []*core.Nimbus{scheme.Nimbus}
		truth := exp.CrossElastic(sc.Cross)
		mt.Track(scheme.Nimbus, func(sim.Time) bool { return truth }, c.end/4)
	}
	c.finish = func() map[string]float64 {
		m := linkMetrics(r, probe.MeanMbps(0, c.end))
		addQdelayMetrics(m, probe.Delay)
		dropNonFinite(m)
		nimbusMetrics(m, scheme.Nimbus, &mt)
		return m
	}
	return nil
}

func (c *cell) buildFlowMix() error {
	sc := c.sc
	specs, err := exp.ParseFlowMix(sc.FlowMix)
	if err != nil {
		return err
	}
	cfg := exp.NetConfigFor(sc)
	if cfg.Schedule, err = exp.ScheduleForScenario(sc); err != nil {
		return err
	}
	r := exp.NewRig(cfg)
	flows, err := r.AddFlowSpecs(specs...)
	if err != nil {
		return err
	}
	sharedDelay := metrics.NewDelayRecorder(0, r.Rng.Split("mix-dlyrec"))
	for _, f := range flows {
		s := f.Probe.Sender
		prev := s.OnDeliverHook
		s.OnDeliverHook = func(p *netem.Packet, now sim.Time) {
			if prev != nil {
				prev(p, now)
			}
			sharedDelay.Add(p.QueueDelay)
		}
		c.senders = append(c.senders, s)
		if f.Scheme.Nimbus != nil {
			c.nimbus = append(c.nimbus, f.Scheme.Nimbus)
		}
	}
	if err := exp.AddCross(r, sc.Cross, sc.CrossRateMbps*1e6, crossRTT(sc)); err != nil {
		return err
	}
	c.rig = r
	c.finish = func() map[string]float64 {
		st := exp.FlowStats(flows, c.end)
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
		return m
	}
	return nil
}

func (c *cell) buildChurn() error {
	sc := c.sc
	wsp, err := workload.ParseSpec(sc.Churn)
	if err != nil {
		return err
	}
	r, scheme, probe, err := exp.RigForScenario(sc)
	if err != nil {
		return err
	}
	gen := &workload.Generator{
		Net:   r.Net,
		Rng:   r.Rng.Split("churn"),
		Spec:  wsp,
		RTT:   sim.FromSeconds(sc.RTTms / 1e3),
		MuBps: r.MuBps,
	}
	if err := gen.Start(0); err != nil {
		return err
	}
	c.rig, c.gen = r, gen
	c.senders = []*transport.Sender{probe.Sender}
	var mt exp.ModeTracker
	if scheme.Nimbus != nil {
		c.nimbus = []*core.Nimbus{scheme.Nimbus}
		mt.Track(scheme.Nimbus, func(sim.Time) bool { return gen.ElasticActive() }, c.end/4)
	}
	c.finish = func() map[string]float64 {
		m := linkMetrics(r, probe.MeanMbps(0, c.end))
		addQdelayMetrics(m, probe.Delay)
		sm := gen.Stats.Snapshot(c.end)
		m["churn_started"] = float64(sm.Started)
		m["churn_completed"] = float64(sm.Completed)
		m["churn_capped"] = float64(sm.Capped)
		m["churn_mbps"] = sm.AggMbps
		m["churn_mean_active"] = sm.MeanActive
		m["churn_max_active"] = float64(sm.MaxActive)
		m["churn_fct_mean_ms"] = sm.FCTMeanMs
		m["churn_fct_p50_ms"] = sm.FCTP50Ms
		m["churn_fct_p95_ms"] = sm.FCTP95Ms
		m["churn_jain"] = sm.Jain
		m["churn_elastic_frac"] = sm.ElasticFrac
		nimbusMetrics(m, scheme.Nimbus, &mt)
		dropNonFinite(m)
		return m
	}
	return nil
}

func crossRTT(sc runner.Scenario) sim.Time {
	if sc.CrossRTTms > 0 {
		return sim.FromSeconds(sc.CrossRTTms / 1e3)
	}
	return sim.FromSeconds(sc.RTTms / 1e3)
}

// linkMetrics, addQdelayMetrics and dropNonFinite are the metric
// emitters of internal/exp for the single-bottleneck, packet-path cells
// the workloads use.
func linkMetrics(r *exp.Rig, meanMbps float64) map[string]float64 {
	return map[string]float64{
		"mean_mbps":       meanMbps,
		"utilization":     r.Link.Utilization(),
		"dropped_packets": float64(r.Link.DroppedPackets),
	}
}

func addQdelayMetrics(m map[string]float64, d *metrics.DelayRecorder) {
	mean, qs := d.MeanQuantiles(0.5, 0.95)
	m["qdelay_mean_ms"] = mean
	m["qdelay_p50_ms"] = qs[0]
	m["qdelay_p95_ms"] = qs[1]
}

func dropNonFinite(m map[string]float64) {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(m, k)
		}
	}
}

func nimbusMetrics(m map[string]float64, n *core.Nimbus, mt *exp.ModeTracker) {
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

// cellCounts are the layer counters of one traced cell, read at the
// cell's boundaries.
type cellCounts struct {
	Events                       uint64
	PendingSum, PendingN         float64
	PendingMax                   int
	Delivered, Dropped, Timeouts uint64
	Ticks, ModeSwitches          uint64
	FlowsStarted, FlowsCompleted int
	BuildNs, SimNs               int64
}

func (a *cellCounts) add(b cellCounts) {
	a.Events += b.Events
	a.PendingSum += b.PendingSum
	a.PendingN += b.PendingN
	a.PendingMax = max(a.PendingMax, b.PendingMax)
	a.Delivered += b.Delivered
	a.Dropped += b.Dropped
	a.Timeouts += b.Timeouts
	a.Ticks += b.Ticks
	a.ModeSwitches += b.ModeSwitches
	a.FlowsStarted += b.FlowsStarted
	a.FlowsCompleted += b.FlowsCompleted
	a.BuildNs += b.BuildNs
	a.SimNs += b.SimNs
}

// runTracedCell builds and runs one scenario with spans around the rig
// build and the simulation, advancing the scheduler one simulated second
// at a time to sample its queue length.
func runTracedCell(sc runner.Scenario, tr *tracer, trace, parent int64) (runner.Result, cellCounts) {
	var cnt cellCounts
	cellID := tr.newID()
	t0 := time.Now()
	defer func() {
		tr.add(span{ID: cellID, Parent: parent, Trace: trace, Name: "cell", Start: t0, End: time.Now(), Attr: sc.Key()})
	}()

	buildID := tr.newID()
	c, err := buildCell(sc)
	t1 := time.Now()
	tr.add(span{ID: buildID, Parent: cellID, Trace: trace, Name: "rig_build", Start: t0, End: t1})
	cnt.BuildNs = t1.Sub(t0).Nanoseconds()
	if err != nil {
		return runner.Result{Scenario: sc, Err: err.Error()}, cnt
	}

	sch := c.rig.Sch
	for t := sim.Second; ; t += sim.Second {
		if t > c.end {
			t = c.end
		}
		sch.RunUntil(t)
		p := sch.Pending()
		cnt.PendingSum += float64(p)
		cnt.PendingN++
		cnt.PendingMax = max(cnt.PendingMax, p)
		if t == c.end {
			break
		}
	}
	t2 := time.Now()
	tr.add(span{ID: tr.newID(), Parent: cellID, Trace: trace, Name: "simulate", Start: t1, End: t2})
	cnt.SimNs = t2.Sub(t1).Nanoseconds()

	m := c.finish()
	cnt.Events = sch.Executed
	for _, l := range c.rig.Net.Links() {
		cnt.Delivered += l.DeliveredPackets
		cnt.Dropped += l.DroppedPackets
	}
	for _, s := range c.senders {
		cnt.Timeouts += s.Timeouts
	}
	cnt.Ticks = c.ticks
	for _, n := range c.nimbus {
		cnt.ModeSwitches += uint64(n.ModeSwitches)
	}
	if c.gen != nil {
		sm := c.gen.Stats.Snapshot(c.end)
		cnt.FlowsStarted, cnt.FlowsCompleted = sm.Started, sm.Completed
	}
	return runner.Result{Scenario: sc, Metrics: m, Events: sch.Executed}, cnt
}

// span is one timed interval of a traced run. Spans sharing a Trace
// belong to one round (batch workloads) or one job (svc).
type span struct {
	ID, Parent, Trace int64
	Name              string
	Start, End        time.Time
	Attr              string
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	next  int64
	spans []span
}

func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// writeTrace writes a traced run's spans and its per-layer metrics (the
// layer file) into o.OutDir.
func writeTrace(o options, tr *tracer, layers map[string]float64) error {
	type jsonSpan struct {
		ID      int64  `json:"id"`
		Parent  int64  `json:"parent,omitempty"`
		Trace   int64  `json:"trace"`
		Name    string `json:"name"`
		StartUs int64  `json:"start_us"`
		DurUs   int64  `json:"dur_us"`
		Attr    string `json:"attr,omitempty"`
	}
	tr.mu.Lock()
	var epoch time.Time
	for _, s := range tr.spans {
		if epoch.IsZero() || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	spans := make([]jsonSpan, len(tr.spans))
	for i, s := range tr.spans {
		spans[i] = jsonSpan{s.ID, s.Parent, s.Trace, s.Name, s.Start.Sub(epoch).Microseconds(), s.End.Sub(s.Start).Microseconds(), s.Attr}
	}
	tr.mu.Unlock()
	files := map[string]any{
		o.Workload + "-spans.json": spans,
		o.Workload + "-layers.json": map[string]any{
			"workload": o.Workload, "seed": o.Seed, "seconds": o.Seconds, "metrics": layers,
		},
	}
	for name, v := range files {
		b, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(o.OutDir, name), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
