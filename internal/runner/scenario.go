// Package runner is the parallel experiment engine: a declarative
// Scenario spec with grid-sweep expansion, and a worker pool that executes
// scenarios across goroutines while keeping results byte-identical to a
// sequential run. Each simulation is single-threaded-deterministic by
// design (internal/sim), which makes sweeps embarrassingly parallel: the
// engine's only job is to hand every run an isolated random stream, fan
// the runs out, and reassemble results in submission order.
//
// # Key stability
//
// Scenario.Key is the contract that makes all of this hold together: a
// canonical one-line encoding of every parameter, fed to sim.DeriveSeed
// to give each scenario its own random stream. Three guarantees follow,
// and every change to Scenario must preserve them:
//
//  1. Two scenarios differing in any field have different keys (enforced
//     by TestKeyCoversEveryField via reflection), so no two distinct
//     cells of a sweep ever share a stream.
//  2. A scenario's key never depends on where it appears — not on the
//     grid that expanded it, the worker that ran it, or the fields that
//     happened to vary — so results are reproducible cell by cell.
//  3. New fields append to the key only when set ("/flows=", "/topo=",
//     "/churn=", ...), so every scenario expressible before the field
//     existed keeps its exact key, derived seed, and results.
//
// Spec-valued fields (topology, flow mix, churn, fluid) enter the key
// verbatim; grids from outside the program go through exp.CanonicalGrid,
// which maps equivalent spellings to one canonical string.
package runner

import (
	"fmt"
	"sort"
	"strings"

	"nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// Scenario is a declarative description of one simulation run on the
// single-bottleneck topology: the link, the scheme under test, the cross
// traffic it competes with, and the horizon. New workloads are data, not
// code — build Scenario values (directly or via Grid) and hand them to a
// Runner.
type Scenario struct {
	// Name labels the scenario in results; Grid.Expand derives it from
	// the swept fields when empty.
	Name string `json:"name"`

	// Bottleneck.
	RateMbps    float64 `json:"rate_mbps"`
	RTTms       float64 `json:"rtt_ms"`
	BufferMs    float64 `json:"buffer_ms"`
	AQM         string  `json:"aqm,omitempty"` // droptail (default), pie, codel
	PIETargetMs float64 `json:"pie_target_ms,omitempty"`

	// Time-varying bottleneck capacity. LinkTrace names an embedded
	// capacity trace (netem.TraceNames) or a trace file path; RatePattern
	// is a netem.ParsePattern spec ("step:6:24:2000", "ramp:4:40:8000",
	// "outage:10000:3000") anchored at RateMbps. Both empty means the
	// constant-rate link; setting both is a scenario error at rig time.
	LinkTrace   string `json:"link_trace,omitempty"`
	RatePattern string `json:"rate_pattern,omitempty"`

	// Topology selects the path topology: "" is the paper's single
	// bottleneck; otherwise a preset name ("access-hop", "parking-lot",
	// "rev-congested") or a chain spec like "access(x4,5ms)->bn"
	// (netem.ParseTopology).
	Topology string `json:"topology,omitempty"`

	// Scheme under test: a typed scheme spec ("nimbus", "copa(delta=0.1)",
	// "nimbus(pulse=0.1,mu=est)"; see the internal/scheme registry).
	// Ignored when FlowMix is set.
	Scheme scheme.Spec `json:"scheme"`

	// FlowMix, when non-empty, replaces the single scheme under test with
	// a heterogeneous flow set: "+"-separated items of the form
	// SPEC[*COUNT][@STARTs[:STOPs]], e.g. "nimbus*2+cubic@10" (two Nimbus
	// flows at t=0 and one Cubic flow joining at t=10s). internal/exp
	// parses it into FlowSpecs and reports per-flow and fairness metrics.
	FlowMix string `json:"flow_mix,omitempty"`

	// Churn, when non-empty, runs the scenario as a flow-churn workload:
	// the scheme under test competes with a session-arrival process
	// (internal/workload) of short flows arriving and departing for the
	// whole horizon, and the result carries detection-accuracy and
	// fairness-under-churn metrics. The spec is a workload.Spec string
	// like "bulk(load=24)" or "web(load=12,cc=cubic)".
	Churn string `json:"churn,omitempty"`

	// Cross traffic (internal/exp.AddCross kinds) and its offered rate.
	Cross         string  `json:"cross,omitempty"`
	CrossRateMbps float64 `json:"cross_rate_mbps,omitempty"`
	CrossRTTms    float64 `json:"cross_rtt_ms,omitempty"`

	// FluidCross, when non-empty, runs the scenario's cross traffic as a
	// fluid rate process instead of per-packet events
	// (crosstraffic.Fluid): "on" for the default resample interval, or
	// "dt=5ms". Only cross kinds with a fluid model (cbr, poisson,
	// cubic, reno) are affected; the foreground scheme stays exact
	// per-packet. Fluid runs approximate the packet path, so they get
	// their own key — results are not byte-comparable to packet runs.
	FluidCross string `json:"fluid_cross,omitempty"`

	DurationSec float64 `json:"duration_sec"`
	// Seed is the seed the user asked for (what names and result rows
	// report). RunSeed, when non-zero, is what the simulation actually
	// uses: Grid.Expand derives it from the scenario's own parameters so
	// every cell of a sweep gets an isolated random stream.
	Seed    int64 `json:"seed"`
	RunSeed int64 `json:"run_seed,omitempty"`
}

// EffectiveSeed returns the seed the simulation should run with.
func (s Scenario) EffectiveSeed() int64 {
	if s.RunSeed != 0 {
		return s.RunSeed
	}
	return s.Seed
}

// Key returns a canonical one-line encoding of every parameter. It is the
// label fed to sim.DeriveSeed, so two scenarios differing in any field get
// independent random streams, and the same scenario always gets the same
// stream no matter where in a sweep it appears.
//
// Every Scenario field must be encoded here except Name (a display label)
// and RunSeed (derived from this very key). TestKeyCoversEveryField
// enforces that invariant by reflection — adding a field without
// extending Key (or the test's exemption list) fails the build.
func (s Scenario) Key() string {
	key := fmt.Sprintf("rate=%g/trace=%s/pattern=%s/rtt=%g/buf=%g/aqm=%s/pie=%g/scheme=%s/cross=%s:%g@%g/dur=%g/seed=%d",
		s.RateMbps, s.LinkTrace, s.RatePattern, s.RTTms, s.BufferMs, s.AQM, s.PIETargetMs, s.Scheme,
		s.Cross, s.CrossRateMbps, s.CrossRTTms, s.DurationSec, s.Seed)
	// Appended only when set, so every pre-existing scenario keeps its
	// exact key (and therefore its derived seed and results).
	if s.FlowMix != "" {
		key += "/flows=" + s.FlowMix
	}
	if s.Topology != "" {
		key += "/topo=" + s.Topology
	}
	if s.Churn != "" {
		key += "/churn=" + s.Churn
	}
	if s.FluidCross != "" {
		key += "/fluid=" + s.FluidCross
	}
	return key
}

// CacheKey returns the content address of this scenario's result for a
// given simulator build: Key()/effectiveSeed/codeVersion. It is the key
// the experiment service (internal/svc) stores results under, so the
// composition is load-bearing:
//
//   - Key() covers every scenario parameter (TestKeyCoversEveryField), so
//     two scenarios that could produce different results never share a
//     cached entry.
//   - EffectiveSeed() covers RunSeed, which Key() deliberately omits (it
//     is derived from the key for Grid-expanded scenarios but may be set
//     freely on hand-built ones) yet changes the random stream the
//     simulation actually runs with.
//   - codeVersion identifies the simulation code that produced the
//     result, so a rebuild with different behavior invalidates every
//     entry instead of serving stale results.
//
// TestCacheKeyCoversEveryField pins this composition by reflection.
func (s Scenario) CacheKey(codeVersion string) string {
	return fmt.Sprintf("%s/%d/%s", s.Key(), s.EffectiveSeed(), codeVersion)
}

// label is the human-readable name Grid.Expand assigns, listing only the
// fields that vary.
func (s Scenario) label(varying []string) string {
	parts := make([]string, 0, len(varying))
	for _, f := range varying {
		switch f {
		case "rate":
			parts = append(parts, fmt.Sprintf("rate=%g", s.RateMbps))
		case "rtt":
			parts = append(parts, fmt.Sprintf("rtt=%g", s.RTTms))
		case "buf":
			parts = append(parts, fmt.Sprintf("buf=%g", s.BufferMs))
		case "trace":
			parts = append(parts, "trace="+s.LinkTrace)
		case "pattern":
			parts = append(parts, "pattern="+s.RatePattern)
		case "topo":
			topo := s.Topology
			if topo == "" {
				topo = "single"
			}
			parts = append(parts, "topo="+topo)
		case "aqm":
			parts = append(parts, "aqm="+s.AQM)
		case "scheme":
			parts = append(parts, s.Scheme.String())
		case "flows":
			parts = append(parts, "flows="+s.FlowMix)
		case "churn":
			parts = append(parts, "churn="+s.Churn)
		case "cross":
			parts = append(parts, fmt.Sprintf("cross=%s:%g", s.Cross, s.CrossRateMbps))
		case "fluid":
			fluid := s.FluidCross
			if fluid == "" {
				fluid = "off"
			}
			parts = append(parts, "fluid="+fluid)
		case "seed":
			parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
		}
	}
	if len(parts) == 0 {
		if s.FlowMix != "" {
			return s.FlowMix
		}
		return s.Scheme.String()
	}
	return strings.Join(parts, "/")
}

// Cross pairs a cross-traffic kind with its offered rate for sweeps.
type Cross struct {
	Kind     string  `json:"kind"`
	RateMbps float64 `json:"rate_mbps"`
}

// Grid is a declarative sweep: the cartesian product of every non-empty
// axis applied to a base scenario. Empty axes keep the base value.
type Grid struct {
	Base Scenario `json:"base"`

	RatesMbps    []float64     `json:"rates_mbps,omitempty"`
	LinkTraces   []string      `json:"link_traces,omitempty"`
	RatePatterns []string      `json:"rate_patterns,omitempty"`
	Topologies   []string      `json:"topologies,omitempty"`
	RTTsMs       []float64     `json:"rtts_ms,omitempty"`
	BuffersMs    []float64     `json:"buffers_ms,omitempty"`
	AQMs         []string      `json:"aqms,omitempty"`
	Schemes      []scheme.Spec `json:"schemes,omitempty"`
	FlowMixes    []string      `json:"flow_mixes,omitempty"`
	Churns       []string      `json:"churns,omitempty"`
	Crosses      []Cross       `json:"crosses,omitempty"`
	// Fluids sweeps the fluid cross-traffic axis; "" means the exact
	// per-packet path (the base default).
	Fluids []string `json:"fluids,omitempty"`
	Seeds  []int64  `json:"seeds,omitempty"`
}

// Expand returns the scenarios of the grid in a stable order (outermost
// axis first: scheme, flow mix, churn, cross, fluid, rate, trace,
// pattern, topology, rtt, buffer, aqm, seed). Every scenario gets a per-run seed derived from its own
// parameters via sim.DeriveSeed, so results do not depend on expansion
// order or worker count, and a Name naming the varying axes.
func (g Grid) Expand() []Scenario {
	rates := g.RatesMbps
	if len(rates) == 0 {
		rates = []float64{g.Base.RateMbps}
	}
	traces := g.LinkTraces
	if len(traces) == 0 {
		traces = []string{g.Base.LinkTrace}
	}
	patterns := g.RatePatterns
	if len(patterns) == 0 {
		patterns = []string{g.Base.RatePattern}
	}
	topos := g.Topologies
	if len(topos) == 0 {
		topos = []string{g.Base.Topology}
	}
	rtts := g.RTTsMs
	if len(rtts) == 0 {
		rtts = []float64{g.Base.RTTms}
	}
	bufs := g.BuffersMs
	if len(bufs) == 0 {
		bufs = []float64{g.Base.BufferMs}
	}
	aqms := g.AQMs
	if len(aqms) == 0 {
		aqms = []string{g.Base.AQM}
	}
	schemes := g.Schemes
	if len(schemes) == 0 {
		schemes = []scheme.Spec{g.Base.Scheme}
	}
	mixes := g.FlowMixes
	if len(mixes) == 0 {
		mixes = []string{g.Base.FlowMix}
	}
	churns := g.Churns
	if len(churns) == 0 {
		churns = []string{g.Base.Churn}
	}
	// A flow mix replaces the scheme under test, so sweeping both axes
	// would emit duplicate scenarios whose scheme= key component differs
	// but whose runs are identical in everything except the derived
	// seed — results that look scheme-dependent while the scheme was
	// never used. FlowMixes therefore collapses the scheme axis.
	if len(g.FlowMixes) > 0 || g.Base.FlowMix != "" {
		schemes = []scheme.Spec{{}}
	}
	crosses := g.Crosses
	if len(crosses) == 0 {
		crosses = []Cross{{Kind: g.Base.Cross, RateMbps: g.Base.CrossRateMbps}}
	}
	fluids := g.Fluids
	if len(fluids) == 0 {
		fluids = []string{g.Base.FluidCross}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{g.Base.Seed}
	}

	var varying []string
	for _, v := range []struct {
		name string
		n    int
	}{
		{"scheme", len(schemes)}, {"flows", len(mixes)}, {"churn", len(churns)}, {"cross", len(crosses)}, {"fluid", len(fluids)}, {"rate", len(rates)},
		{"trace", len(traces)}, {"pattern", len(patterns)}, {"topo", len(topos)},
		{"rtt", len(rtts)}, {"buf", len(bufs)}, {"aqm", len(aqms)}, {"seed", len(seeds)},
	} {
		if v.n > 1 {
			varying = append(varying, v.name)
		}
	}

	out := make([]Scenario, 0, len(schemes)*len(mixes)*len(churns)*len(crosses)*len(fluids)*len(rates)*len(traces)*len(patterns)*len(topos)*len(rtts)*len(bufs)*len(aqms)*len(seeds))
	for _, sp := range schemes {
		for _, mix := range mixes {
			for _, churn := range churns {
				for _, cross := range crosses {
					for _, fluid := range fluids {
						for _, rate := range rates {
							for _, trace := range traces {
								for _, pattern := range patterns {
									for _, topo := range topos {
										for _, rtt := range rtts {
											for _, buf := range bufs {
												for _, aqm := range aqms {
													for _, seed := range seeds {
														sc := g.Base
														sc.Scheme = sp
														sc.FlowMix = mix
														sc.Churn = churn
														sc.Cross = cross.Kind
														sc.CrossRateMbps = cross.RateMbps
														sc.FluidCross = fluid
														sc.RateMbps = rate
														sc.LinkTrace = trace
														sc.RatePattern = pattern
														sc.Topology = topo
														sc.RTTms = rtt
														sc.BufferMs = buf
														sc.AQM = aqm
														sc.Seed = seed
														sc.RunSeed = sim.DeriveSeed(seed, sc.Key())
														if sc.Name == "" || sc.Name == g.Base.Name {
															sc.Name = sc.label(varying)
														}
														out = append(out, sc)
													}
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Result is one structured row of a sweep.
type Result struct {
	Scenario Scenario `json:"scenario"`
	// Metrics holds named measurements (mean_mbps, qdelay_p95_ms, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Events is the number of simulator events executed.
	Events uint64 `json:"events"`
	// WallSec is the host wall-clock time the run took.
	WallSec float64 `json:"wall_sec"`
	// Err is set when the run failed; Metrics is then nil.
	Err string `json:"err,omitempty"`
}

// EventsPerSec returns simulator events per wall-clock second.
func (r Result) EventsPerSec() float64 {
	if r.WallSec <= 0 {
		return 0
	}
	return float64(r.Events) / r.WallSec
}

// MetricNames returns the union of metric keys across results, sorted.
func MetricNames(rs []Result) []string {
	set := map[string]bool{}
	for _, r := range rs {
		for k := range r.Metrics {
			set[k] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
