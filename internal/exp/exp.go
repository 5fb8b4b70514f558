// Package exp contains the experiment harness: one constructor per table
// or figure of the paper, each returning typed rows and a textual
// rendering that mirrors what the paper reports. The DESIGN.md experiment
// index maps every figure/table to its function here and its benchmark in
// the repository root.
package exp

import (
	"fmt"

	"nimbus/internal/cc"
	"nimbus/internal/core"
	"nimbus/internal/crosstraffic"
	"nimbus/internal/metrics"
	"nimbus/internal/netem"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
	"nimbus/internal/transport"
)

// NetConfig describes the emulated network (the Mahimahi stand-in): the
// nominal bottleneck parameters plus, optionally, a topology the path is
// built from.
type NetConfig struct {
	RateMbps  float64
	RTT       sim.Time // base RTT of the primary flow
	Buffer    sim.Time // drop-tail buffer depth in time at the link rate
	AQM       string   // "droptail" (default), "pie", "codel"
	PIETarget sim.Time // PIE target delay (default 20 ms)
	Seed      int64
	// Schedule, when non-nil, makes the bottleneck capacity time-varying
	// (traces, ramps, outages). RateMbps stays the nominal rate: buffer
	// depth and the AQM drain-rate estimate are sized from it, the way a
	// real deployment provisions for a nominal capacity.
	Schedule *netem.RateSchedule
	// Topology selects the path topology: empty (or "single") is the
	// paper's Fig. 2 single bottleneck; otherwise a preset name
	// ("access-hop", "parking-lot", "rev-congested") or a chain spec like
	// "access(x4,5ms)->bn" (netem.ParseTopology). Links without explicit
	// rates/buffers inherit RateMbps/Buffer; the bottleneck link inherits
	// AQM and Schedule.
	Topology string
	// Fluid, when non-empty, is a canonical crosstraffic.FluidSpec string
	// ("on", "dt=5ms"): every link gets the fluid load term enabled
	// (Link.EnableFluid), and AddCross kinds with a fluid model (cbr,
	// poisson, cubic, reno) attach as rate processes instead of packet
	// sources. Kinds without a model (trace, video*) stay exact
	// per-packet.
	Fluid string
}

// Rig is an instantiated network for one experiment run. Link is the
// bottleneck hop; Net is the full topology (the trivial one-hop topology
// by default).
type Rig struct {
	Sch   *sim.Scheduler
	Link  *netem.Link
	Net   *netem.Network
	Rng   *sim.Rand
	MuBps float64
	Cfg   NetConfig
	// Fluid is the parsed form of Cfg.Fluid (zero = disabled).
	Fluid crosstraffic.FluidSpec
}

// NewRig builds the network from the config's topology spec (the single
// bottleneck when none is given). Unknown AQMs and malformed topologies
// panic; the sweep harness's runGuarded turns panics into error rows, and
// RigForScenario validates scenario specs up front.
func NewRig(cfg NetConfig) *Rig {
	if cfg.Buffer == 0 {
		cfg.Buffer = 100 * sim.Millisecond
	}
	ts, err := netem.ParseTopology(cfg.Topology)
	if err != nil {
		panic("exp: " + err.Error())
	}
	fluid, err := crosstraffic.ParseFluidSpec(cfg.Fluid)
	if err != nil {
		panic("exp: " + err.Error())
	}
	sch := sim.NewScheduler()
	rng := sim.NewRand(cfg.Seed + 1)
	nominal := cfg.RateMbps * 1e6
	// The µ link depends on the nominal rate for chains mixing scaled and
	// absolute rates ("access(x4)->bn(48mbps)" at -rate 24 bottlenecks at
	// bn, not access).
	bottleneck := ts.BottleneckAt(nominal)
	// µ is the bottleneck's resolved capacity — the nominal rate for the
	// single topology and every preset (their bottlenecks inherit it),
	// but a chain may pin the bottleneck to an explicit absolute rate.
	muBps := nominal
	byName := make(map[string]*netem.Link, len(ts.Links))
	net := netem.NewTopology(sch)
	for _, ls := range ts.Links {
		isBn := ls.Name == bottleneck
		rate := ls.ResolveRate(nominal)
		if isBn {
			muBps = rate
		}
		aqm := ls.AQM
		if aqm == "" && isBn {
			aqm = cfg.AQM
		}
		buf := cfg.Buffer
		if ls.BufferMs > 0 {
			buf = sim.FromSeconds(ls.BufferMs / 1e3)
		}
		bufBytes := netem.BufferBytesForDelay(rate, buf)
		var q netem.Queue
		switch aqm {
		case "", "droptail":
			q = netem.NewDropTail(bufBytes)
		case "pie":
			target := cfg.PIETarget
			if target == 0 {
				target = 20 * sim.Millisecond
			}
			// The bottleneck's PIE stream keeps its historical label so
			// single-topology results stay byte-identical.
			label := "pie"
			if !isBn {
				label = "pie-" + ls.Name
			}
			q = netem.NewPIE(bufBytes, rate, target, rng.Split(label))
		case "codel":
			q = netem.NewCoDel(bufBytes)
		default:
			panic("exp: unknown AQM " + aqm)
		}
		var sched *netem.RateSchedule
		switch {
		case isBn && cfg.Schedule != nil:
			sched = cfg.Schedule
		case ls.Pattern != "":
			sched, err = netem.ParsePattern(ls.Pattern, rate)
			if err != nil {
				panic("exp: " + err.Error())
			}
		default:
			sched = netem.ConstantRate(rate)
		}
		link := netem.NewLinkSchedule(sch, sched, q)
		link.Name = ls.Name
		if fluid.Enabled || ls.FluidMbps > 0 {
			link.EnableFluid(bufBytes)
			if ls.FluidMbps > 0 {
				link.AddFluidRate(ls.FluidMbps * 1e6)
			}
		}
		net.AddLink(link)
		byName[ls.Name] = link
	}
	for _, rs := range ts.Routes {
		r := &netem.Route{Name: rs.Name}
		for _, hop := range rs.Fwd {
			r.Fwd = append(r.Fwd, netem.Hop{Link: byName[hop], Delay: hopDelay(ts, hop)})
		}
		for _, hop := range rs.Rev {
			r.Rev = append(r.Rev, netem.Hop{Link: byName[hop], Delay: hopDelay(ts, hop)})
		}
		net.AddRoute(r)
	}
	net.Link = byName[bottleneck]
	net.SetNodes(ts.Nodes())
	return &Rig{
		Sch:   sch,
		Link:  net.Link,
		Net:   net,
		Rng:   rng,
		MuBps: muBps,
		Cfg:   cfg,
		Fluid: fluid,
	}
}

// hopDelay returns a link's wire delay from its spec.
func hopDelay(ts netem.TopoSpec, name string) sim.Time {
	return sim.FromSeconds(ts.LinkByName(name).DelayMs / 1e3)
}

// Scheme is a constructed congestion controller, with the Nimbus core
// exposed when the scheme is Nimbus-based. Schemes are built from typed
// specs through the internal/scheme registry, which internal/cc and
// internal/core populate at init time.
type Scheme struct {
	// Name is the registered scheme name (the spec's name without
	// parameters); random streams and result rows are labeled with it.
	Name string
	// Spec is the full typed spec the scheme was built from.
	Spec   spec.Spec
	Ctrl   transport.Controller
	Nimbus *core.Nimbus // nil for non-Nimbus schemes
	Copa   *cc.Copa     // non-nil for the Copa baseline (mode telemetry)
}

// BuildScheme constructs the scheme a spec describes. muBps is the
// nominal bottleneck rate (the µ oracle's truth); mu, when non-nil, is
// the environment's true-rate µ source — rigs with time-varying links
// pass a LinkOracle, since a fixed-rate oracle would hand Nimbus a
// stale µ the moment the capacity moves. A spec that explicitly asks
// for the estimator (mu=est) keeps the estimator either way.
func BuildScheme(sp spec.Spec, muBps float64, mu core.MuEstimator) (Scheme, error) {
	ctrl, err := spec.Build(sp, spec.BuildContext{MuBps: muBps, Mu: mu})
	if err != nil {
		return Scheme{}, err
	}
	s := Scheme{Name: sp.Name, Spec: sp, Ctrl: ctrl}
	if n, ok := ctrl.(*core.Nimbus); ok {
		s.Nimbus = n
	}
	if c, ok := ctrl.(*cc.Copa); ok {
		s.Copa = c
	}
	return s, nil
}

// MustBuildScheme is BuildScheme for known-good specs; it panics on
// error (the harness's runGuarded turns panics into error rows).
func MustBuildScheme(sp spec.Spec, muBps float64) Scheme {
	s, err := BuildScheme(sp, muBps, nil)
	if err != nil {
		panic(err)
	}
	return s
}

// MustScheme parses a spec string ("nimbus", "copa(delta=0.1)",
// "nimbus(pulse=0.1,multiflow=true)") and builds it, panicking on error.
// It is the one-liner the figure reproductions use.
func MustScheme(s string, muBps float64) Scheme {
	return MustBuildScheme(spec.MustParse(s), muBps)
}

// LinkOracle is the time-varying analogue of core.Oracle: it reports the
// link's instantaneous capacity as µ, for experiments that control for µ
// estimation error on schedules where no single rate is "the" truth. In
// multi-hop rigs the oracle reads the bottleneck hop's link (Rig.Link).
type LinkOracle struct{ Link *netem.Link }

// Observe is a no-op; the oracle reads the link directly.
func (LinkOracle) Observe(sim.Time, float64) {}

// Mu returns the scheduled instantaneous capacity. It evaluates the
// schedule at the current time rather than returning the link's internal
// drain rate: the drain rate is updated by scheduler events, so a reader
// running at the same timestamp as a transition would see the old rate or
// the new one depending on event seeding order, while the schedule gives
// one well-defined answer.
func (o LinkOracle) Mu() float64 { return o.Link.Schedule.RateAt(o.Link.Sch.Now()) }

// SchemeNames lists the schemes most experiments compare.
var SchemeNames = []string{"nimbus", "cubic", "bbr", "vegas", "copa", "vivace"}

// FlowProbe records a flow's throughput, per-packet queueing delay, and
// RTT samples.
type FlowProbe struct {
	Tput   *metrics.Meter
	Delay  *metrics.DelayRecorder
	RTTms  *metrics.DelayRecorder
	Sender *transport.Sender
}

// AddFlow attaches a backlogged flow with the scheme and a probe.
func (r *Rig) AddFlow(s Scheme, rtt sim.Time, start sim.Time) *FlowProbe {
	return r.AddFlowSrc(s, rtt, start, transport.Backlogged{})
}

// AddFlowSrc attaches a flow with an explicit application source on the
// default route.
func (r *Rig) AddFlowSrc(s Scheme, rtt sim.Time, start sim.Time, src transport.Source) *FlowProbe {
	return r.AddFlowOn("", s, rtt, start, src)
}

// AddFlowOn attaches a flow on a named route of the rig's topology (""
// is the default end-to-end route).
func (r *Rig) AddFlowOn(route string, s Scheme, rtt sim.Time, start sim.Time, src transport.Source) *FlowProbe {
	sender := transport.NewSenderOn(r.Net, route, rtt, s.Ctrl, src, r.Rng.Split("flow-"+s.Name))
	probe := &FlowProbe{
		Tput:   metrics.NewMeter(sim.Second),
		Delay:  metrics.NewDelayRecorder(0, r.Rng.Split("dlyrec")),
		RTTms:  metrics.NewDelayRecorder(0, r.Rng.Split("rttrec")),
		Sender: sender,
	}
	sender.OnDeliverHook = func(p *netem.Packet, now sim.Time) {
		probe.Tput.Add(now, p.Size)
		probe.Delay.Add(p.QueueDelay)
	}
	sender.OnAckHook = func(a transport.AckInfo) {
		probe.RTTms.Add(a.RTT)
	}
	sender.Start(start)
	return probe
}

// MeanMbps is the probe's mean throughput over [from, to).
func (p *FlowProbe) MeanMbps(from, to sim.Time) float64 { return p.Tput.MeanMbps(from, to) }

// FlowSpec declares one group of flows for a Rig: which scheme, how many
// copies, when they start and stop, and what application drives them.
// It is the composition unit behind heterogeneous coexistence
// experiments (Nimbus-vs-Cubic-vs-BBR mixes, late joiners, finite
// flows) — one Rig hosts any number of FlowSpecs.
type FlowSpec struct {
	// Scheme is the typed scheme spec each flow runs.
	Scheme spec.Spec
	// Count is how many identical flows to start (0 means 1). Each gets
	// its own controller instance and random stream.
	Count int
	// RTT is the flows' base RTT; 0 uses the rig's configured RTT.
	RTT sim.Time
	// StartAt / StopAt bound the flows' lifetime; StopAt 0 means the
	// flows run to the end of the simulation.
	StartAt, StopAt sim.Time
	// Source is the application source (nil means backlogged).
	Source transport.Source
	// Route is the topology route the flows take ("" = the default
	// end-to-end route). Parking-lot style experiments use it to pin
	// flows to individual hops.
	Route string
}

// Flow is one instantiated flow of a FlowSpec: its constructed scheme,
// its probe, and where it came from.
type Flow struct {
	Spec   FlowSpec
	Index  int // index within the FlowSpec's Count
	Scheme Scheme
	Probe  *FlowProbe
}

// Active returns the flow's active interval clipped to [0, end).
func (f *Flow) Active(end sim.Time) (from, to sim.Time) {
	from, to = f.Spec.StartAt, end
	if f.Spec.StopAt > 0 && f.Spec.StopAt < end {
		to = f.Spec.StopAt
	}
	return from, to
}

// MeanMbps is the flow's mean throughput over its active interval
// clipped to end.
func (f *Flow) MeanMbps(end sim.Time) float64 {
	from, to := f.Active(end)
	return f.Probe.MeanMbps(from, to)
}

// AddFlowSpecs instantiates flow specs on the rig, in order. Flows on a
// time-varying rig get the link oracle as µ unless their spec says
// otherwise; start/stop scheduling and per-flow probes are wired the
// same way AddFlow does for a single flow. The call is atomic: every
// scheme is built (and validated) before any flow touches the rig, so
// an error leaves the rig exactly as it was.
func (r *Rig) AddFlowSpecs(specs ...FlowSpec) ([]*Flow, error) {
	var mu core.MuEstimator
	if r.Link.Varying() {
		mu = LinkOracle{Link: r.Link}
	}
	var flows []*Flow
	for _, fs := range specs {
		if fs.StopAt > 0 && fs.StopAt <= fs.StartAt {
			return nil, fmt.Errorf("exp: flow spec %s: stop %gs not after start %gs",
				fs.Scheme, fs.StopAt.Seconds(), fs.StartAt.Seconds())
		}
		if r.Net.Route(fs.Route) == nil {
			return nil, fmt.Errorf("exp: flow spec %s: no route %q in topology %s",
				fs.Scheme, fs.Route, r.Cfg.Topology)
		}
		count := fs.Count
		if count <= 0 {
			count = 1
		}
		for i := 0; i < count; i++ {
			s, err := BuildScheme(fs.Scheme, r.MuBps, mu)
			if err != nil {
				return nil, err
			}
			flows = append(flows, &Flow{Spec: fs, Index: i, Scheme: s})
		}
	}
	for _, f := range flows {
		rtt := f.Spec.RTT
		if rtt == 0 {
			rtt = r.Cfg.RTT
		}
		src := f.Spec.Source
		if src == nil {
			src = transport.Backlogged{}
		}
		f.Probe = r.AddFlowOn(f.Spec.Route, f.Scheme, rtt, f.Spec.StartAt, src)
		if stop := f.Spec.StopAt; stop > 0 {
			probe := f.Probe
			r.Sch.At(stop, func() {
				probe.Sender.Stop()
				r.Net.Detach(probe.Sender.ID())
			})
		}
	}
	return flows, nil
}

// FlowSetStats are the aggregate measurements of a heterogeneous flow
// set: per-flow throughput plus the fairness of the allocation.
type FlowSetStats struct {
	// PerFlowMbps is each flow's mean throughput over its own active
	// interval, in AddFlowSpecs order.
	PerFlowMbps []float64
	// AggMbps is the flow set's aggregate throughput over the whole run
	// ([0, end)) — total delivered bits over total time, so it is
	// bounded by the link capacity and comparable to a single flow's
	// mean_mbps regardless of how the flows' active windows stagger.
	AggMbps float64
	// Jain and JSDUniform score the allocation over the window where
	// every flow is active (Jain's fairness index; Jensen-Shannon
	// divergence from the equal-share split, in bits). Both are 0 when
	// no such window exists.
	Jain       float64
	JSDUniform float64
}

// FlowStats measures a flow set at the end of a run.
func FlowStats(flows []*Flow, end sim.Time) FlowSetStats {
	st := FlowSetStats{}
	// The fairness window: every flow active.
	winFrom, winTo := sim.Time(0), end
	for _, f := range flows {
		from, to := f.Active(end)
		if from > winFrom {
			winFrom = from
		}
		if to < winTo {
			winTo = to
		}
		st.PerFlowMbps = append(st.PerFlowMbps, f.Probe.MeanMbps(from, to))
		st.AggMbps += f.Probe.MeanMbps(0, end)
	}
	if winTo > winFrom {
		shared := make([]float64, len(flows))
		for i, f := range flows {
			shared[i] = f.Probe.MeanMbps(winFrom, winTo)
		}
		st.Jain = metrics.JainIndex(shared)
		st.JSDUniform = metrics.JSDUniform(shared)
	}
	return st
}

// AddCubicCross starts n long-running Cubic cross flows at time start and
// returns their senders.
func (r *Rig) AddCubicCross(n int, rtt sim.Time, start sim.Time) []*transport.Sender {
	out := make([]*transport.Sender, n)
	for i := range out {
		s := transport.NewSender(r.Net, rtt, cc.NewCubic(), transport.Backlogged{}, r.Rng.Split(fmt.Sprintf("ccross%d", i)))
		s.Start(start)
		out[i] = s
	}
	return out
}

// StopFlows stops senders and detaches them from the network.
func (r *Rig) StopFlows(ss []*transport.Sender, at sim.Time) {
	r.Sch.At(at, func() {
		for _, s := range ss {
			s.Stop()
			r.Net.Detach(s.ID())
		}
	})
}

// ModeTracker accumulates Nimbus mode/accuracy statistics from telemetry.
type ModeTracker struct {
	Acc          metrics.AccuracyTracker
	EtaSer       metrics.Series
	ModeSer      metrics.Series // 1 = competitive
	CompTime     sim.Time
	lastT        sim.Time
	RecordSeries bool
}

// Track wires the tracker to a Nimbus instance with the given ground
// truth ("is the cross traffic elastic right now").
func (mt *ModeTracker) Track(n *core.Nimbus, truth func(now sim.Time) bool, warmup sim.Time) {
	mt.Acc.Warmup = warmup
	prev := n.OnTick
	n.OnTick = func(t core.Telemetry) {
		if prev != nil {
			prev(t)
		}
		pred := t.Mode == core.ModeCompetitive
		mt.Acc.Observe(t.Now, pred, truth(t.Now))
		if pred && mt.lastT != 0 {
			mt.CompTime += t.Now - mt.lastT
		}
		mt.lastT = t.Now
		if mt.RecordSeries {
			mt.EtaSer.Add(t.Now, t.Eta)
			m := 0.0
			if pred {
				m = 1
			}
			mt.ModeSer.Add(t.Now, m)
		}
	}
}

// CopaModeProbe samples Copa's own mode every 10 ms against ground truth.
func (r *Rig) CopaModeProbe(c *cc.Copa, truth func(now sim.Time) bool, warmup sim.Time) *metrics.AccuracyTracker {
	acc := &metrics.AccuracyTracker{Warmup: warmup}
	var tick func()
	tick = func() {
		acc.Observe(r.Sch.Now(), c.Competitive(), truth(r.Sch.Now()))
		r.Sch.AfterFunc(10*sim.Millisecond, tick)
	}
	r.Sch.AfterFunc(10*sim.Millisecond, tick)
	return acc
}

// Mbps formats a bits/s value in Mbit/s.
func Mbps(bps float64) float64 { return bps / 1e6 }

// newPoisson attaches a Poisson raw source to the rig.
func newPoisson(r *Rig, rtt sim.Time, rateBps float64) *crosstraffic.RawSource {
	return crosstraffic.NewPoisson(r.Net, rtt, rateBps, r.Rng.Split("poisson"))
}

// newCBR attaches a constant-bit-rate raw source to the rig.
func newCBR(r *Rig, rtt sim.Time, rateBps float64) *crosstraffic.RawSource {
	return crosstraffic.NewCBR(r.Net, rtt, rateBps)
}

// AddCross attaches a named cross-traffic generator to the rig's default
// route (used by cmd/nimbus-sim and the examples). kind is one of: none,
// cubic, reno, poisson, cbr, trace, video4k, video1080p.
func AddCross(r *Rig, kind string, rateBps float64, rtt sim.Time) error {
	return AddCrossOn(r, "", kind, rateBps, rtt)
}

// AddCrossOn is AddCross on a named route of the rig's topology, so
// cross traffic can enter at individual hops (parking-lot contention) or
// on the reverse path (ACK-path congestion via "rev-cross").
func AddCrossOn(r *Rig, route, kind string, rateBps float64, rtt sim.Time) error {
	if r.Net.Route(route) == nil {
		return fmt.Errorf("exp: cross traffic %q: no route %q in topology %s", kind, route, r.Cfg.Topology)
	}
	if r.Fluid.Enabled && crosstraffic.HasFluidModel(kind) {
		f, err := crosstraffic.NewFluid(r.Net, route, kind, rateBps, rtt, r.Fluid, r.Rng.Split("fluid-"+kind))
		if err != nil {
			return fmt.Errorf("exp: %w", err)
		}
		f.Start(0)
		return nil
	}
	switch kind {
	case "none", "":
	case "cubic":
		s := transport.NewSenderOn(r.Net, route, rtt, cc.NewCubic(), transport.Backlogged{}, r.Rng.Split("ccross0"))
		s.Start(0)
	case "reno":
		s := transport.NewSenderOn(r.Net, route, rtt, cc.NewReno(), transport.Backlogged{}, r.Rng.Split("reno-cross"))
		s.Start(0)
	case "poisson":
		crosstraffic.NewPoissonOn(r.Net, route, rtt, rateBps, r.Rng.Split("poisson")).Start(0)
	case "cbr":
		crosstraffic.NewCBROn(r.Net, route, rtt, rateBps).Start(0)
	case "trace":
		w := &crosstraffic.TraceWorkload{
			Net:     r.Net,
			Rng:     r.Rng.Split("trace"),
			LoadBps: rateBps,
			RTT:     rtt,
			Route:   route,
			NewCC:   func() transport.Controller { return cc.NewCubic() },
		}
		w.Start(0)
	case "video4k", "video1080p":
		ladder := crosstraffic.Ladder1080p
		if kind == "video4k" {
			ladder = crosstraffic.Ladder4K
		}
		v := &crosstraffic.VideoClient{
			Net: r.Net, Rng: r.Rng.Split("video"), RTT: rtt, Route: route,
			Ladder: ladder,
			NewCC:  func() transport.Controller { return cc.NewCubic() },
		}
		v.Start(0)
	default:
		return fmt.Errorf("exp: unknown cross traffic kind %q", kind)
	}
	return nil
}

// addDeliverTap chains an extra observer onto a sender's delivery hook
// without disturbing existing observers (the probe's meters).
func addDeliverTap(s *transport.Sender, tap func(p *netem.Packet, now sim.Time)) {
	prev := s.OnDeliverHook
	s.OnDeliverHook = func(p *netem.Packet, now sim.Time) {
		if prev != nil {
			prev(p, now)
		}
		tap(p, now)
	}
}
