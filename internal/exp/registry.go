package exp

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"nimbus/internal/netem"
	spec "nimbus/internal/scheme"
)

// Experiment is a runnable reproduction of one paper artifact.
type Experiment struct {
	ID    string
	Title string
	// Run executes the experiment and returns the formatted report.
	Run func(seed int64, quick bool) string
}

// Registry maps experiment ids ("fig01".."fig26", "table1", "tableE",
// "mobile", "coexist", "topo") to their runners. cmd/nimbus-bench and
// the root benchmarks both use it.
var Registry = map[string]Experiment{
	"fig01": {"fig01", "Motivating comparison (Cubic / delay-control / Nimbus)",
		func(seed int64, quick bool) string { return FormatFig01(Fig01(seed)) }},
	"fig03": {"fig03", "Self-inflicted delay does not reveal elasticity",
		func(seed int64, quick bool) string { return FormatFig03(RunFig03(seed)) }},
	"fig04": {"fig04", "Cross-traffic reaction to pulses",
		func(seed int64, quick bool) string { return FormatFig04(Fig04(seed)) }},
	"fig05": {"fig05", "FFT of the cross-traffic estimate",
		func(seed int64, quick bool) string { return FormatFig05(Fig05(seed)) }},
	"fig06": {"fig06", "Eta distribution vs elastic fraction",
		func(seed int64, quick bool) string { return FormatFig06(Fig06(seed, quick)) }},
	"fig07": {"fig07", "Asymmetric pulse shape",
		func(seed int64, quick bool) string { return FormatFig07(Fig07()) }},
	"fig08": {"fig08", "Eight-scheme panel with scripted cross traffic",
		func(seed int64, quick bool) string { return FormatFig08(Fig08(seed, quick)) }},
	"fig09": {"fig09", "WAN trace workload: rate/RTT distributions",
		func(seed int64, quick bool) string { return FormatFig09(Fig09(seed, quick)) }},
	"fig10": {"fig10", "Copa throughput drop vs elastic flows",
		func(seed int64, quick bool) string { return FormatFig10(Fig10(seed, quick)) }},
	"fig11": {"fig11", "Video cross traffic",
		func(seed int64, quick bool) string { return FormatFig11(Fig11(seed, quick)) }},
	"fig12": {"fig12", "Eta tracks true elastic fraction",
		func(seed int64, quick bool) string { return FormatFig12(Fig12(seed, quick)) }},
	"fig13": {"fig13", "Offered load and pulse size",
		func(seed int64, quick bool) string { return FormatFig13(Fig13(seed, quick)) }},
	"fig14": {"fig14", "Accuracy vs Copa (inelastic share; RTT ratio)",
		func(seed int64, quick bool) string { return FormatFig14(Fig14(seed, quick)) }},
	"fig15": {"fig15", "Accuracy vs cross-traffic RTT",
		func(seed int64, quick bool) string { return FormatFig15(Fig15(seed, quick)) }},
	"fig16": {"fig16", "Multiple Nimbus flows: fairness and pulser election",
		func(seed int64, quick bool) string { return FormatFig16(Fig16(seed, quick)) }},
	"fig17": {"fig17", "Multiple Nimbus flows with cross traffic",
		func(seed int64, quick bool) string { return FormatFig17(Fig17(seed, quick)) }},
	"fig18": {"fig18", "Three example Internet paths",
		func(seed int64, quick bool) string { return FormatFig18(Fig18(seed, quick)) }},
	"fig19": {"fig19", "25-path suite summary",
		func(seed int64, quick bool) string { return FormatFig19(Fig19(seed, quick)) }},
	"fig20": {"fig20", "Cubic vs delay-control over repeated runs",
		func(seed int64, quick bool) string { return FormatFig20(Fig20(seed, quick)) }},
	"fig21": {"fig21", "Cross-flow FCTs",
		func(seed int64, quick bool) string { return FormatFig21(Fig21(seed, quick)) }},
	"fig22": {"fig22", "Competing with BBR across buffer sizes",
		func(seed int64, quick bool) string { return FormatFig22(Fig22(seed, quick)) }},
	"fig23": {"fig23", "Copa vs Nimbus: CBR dynamics",
		func(seed int64, quick bool) string { return FormatFig23(Fig23(seed, quick)) }},
	"fig24": {"fig24", "Copa vs Nimbus: elastic RTT dynamics",
		func(seed int64, quick bool) string { return FormatFig24(Fig24(seed, quick)) }},
	"fig25": {"fig25", "Multi-factor accuracy sweep",
		func(seed int64, quick bool) string { return FormatFig25(Fig25(seed, quick)) }},
	"fig26": {"fig26", "Detecting PCC-Vivace via pulse frequency",
		func(seed int64, quick bool) string { return FormatFig26(Fig26(seed, quick)) }},
	"churn": {"churn", "Internet-scale flow churn: schemes x session workloads",
		func(seed int64, quick bool) string { return FormatChurn(Churn(seed, quick)) }},
	"coexist": {"coexist", "Heterogeneous flow mixes: coexistence and fairness",
		func(seed int64, quick bool) string { return FormatCoexist(Coexist(seed, quick)) }},
	"fidelity": {"fidelity", "Fluid vs per-packet cross traffic: approximation error and event savings",
		func(seed int64, quick bool) string { return FormatFidelity(Fidelity(seed, quick)) }},
	"mobile": {"mobile", "Time-varying links: schemes x capacity-trace corpus",
		func(seed int64, quick bool) string { return FormatMobile(Mobile(seed, quick)) }},
	"topo": {"topo", "Multi-hop topologies: parking-lot fairness, congested ACK paths",
		func(seed int64, quick bool) string { return FormatTopo(Topo(seed, quick)) }},
	"table1": {"table1", "Classification by traffic class",
		func(seed int64, quick bool) string { return FormatTable1(Table1(seed, quick)) }},
	"tableE": {"tableE", "Buffer/RTT/AQM robustness",
		func(seed int64, quick bool) string { return FormatTableE(TableE(seed, quick)) }},
}

// IDs returns the experiment ids in sorted order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run runs one experiment by id.
func Run(id string, seed int64, quick bool) (string, error) {
	e, ok := Registry[id]
	if !ok {
		return "", fmt.Errorf("unknown experiment %q (known: %v)", id, IDs())
	}
	return e.Run(seed, quick), nil
}

// ListText renders the uniform -list-* flag output every CLI shares:
// the scheme registry, the embedded trace corpus, the topology presets,
// and the experiment index, concatenated in that order for whichever
// flags are set.
func ListText(schemes, traces, topologies, experiments bool) (string, error) {
	var b strings.Builder
	if schemes {
		b.WriteString(spec.FormatList())
	}
	if traces {
		out, err := FormatTraceList()
		if err != nil {
			return "", err
		}
		b.WriteString(out)
	}
	if topologies {
		b.WriteString(FormatTopologyList())
	}
	if experiments {
		b.WriteString(FormatExperimentList())
	}
	return b.String(), nil
}

// HandleListFlags is the CLIs' shared dispatch for the uniform -list-*
// flags: when any is set it prints the listing to stdout (exiting 1 on
// error) and reports true, so each main can simply return. Keeping the
// dispatch here, next to the renderers, means the three binaries cannot
// drift in output, error path, or exit code.
func HandleListFlags(schemes, traces, topologies, experiments bool) bool {
	if !schemes && !traces && !topologies && !experiments {
		return false
	}
	out, err := ListText(schemes, traces, topologies, experiments)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(out)
	return true
}

// StartProfiles is the CLIs' shared -cpuprofile/-memprofile plumbing:
// it starts a CPU profile into cpu (when set) and returns a stop func
// that writes a heap profile of the live heap into mem (when set, after
// a GC) and then stops the CPU profile. Mains defer stop so the profiles
// are written on error exits too — those are the ones worth inspecting.
func StartProfiles(cpu, mem string) (stop func(), err error) {
	stopCPU := func() {}
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	}
	return func() {
		defer stopCPU()
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		runtime.GC() // settle allocations so the profile shows live heap
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}, nil
}

// Family is one group of related experiments in the registry: the paper
// reproductions (fig*, table*) and each sweep family grown on top of
// them. Name is an id prefix ("fig" covers fig01..fig26) or an exact id.
type Family struct {
	Name string
	Doc  string
}

// Families lists the experiment families in documentation order. Every
// registry id must belong to exactly one family
// (TestEveryExperimentHasFamily); docs/experiments.md documents each
// family with a runnable invocation (scripts/check_docs.sh).
var Families = []Family{
	{"fig", "paper figure reproductions (pulses, detection, coexistence dynamics)"},
	{"table", "paper table reproductions (classification accuracy, robustness)"},
	{"mobile", "time-varying links: schemes x capacity-trace corpus"},
	{"coexist", "heterogeneous flow mixes: coexistence and fairness"},
	{"topo", "multi-hop topologies: parking-lot fairness, congested ACK paths"},
	{"churn", "Internet-scale flow churn: session workloads vs long-lived schemes"},
	{"fidelity", "fluid vs per-packet cross traffic: approximation error and event savings"},
}

// FamilyOf returns the family an experiment id belongs to ("" if none):
// the longest family name that prefixes the id.
func FamilyOf(id string) string {
	best := ""
	for _, f := range Families {
		if strings.HasPrefix(id, f.Name) && len(f.Name) > len(best) {
			best = f.Name
		}
	}
	return best
}

// FormatExperimentList renders the registry index grouped by family —
// the text every CLI prints for -list-experiments. Each family gets a
// "family: doc" header followed by its member experiments, so the
// listing explains what a family is for, not just which ids exist.
func FormatExperimentList() string {
	var b strings.Builder
	for _, f := range Families {
		fmt.Fprintf(&b, "%s: %s\n", f.Name, f.Doc)
		for _, id := range IDs() {
			if FamilyOf(id) == f.Name {
				fmt.Fprintf(&b, "  %-8s %s\n", id, Registry[id].Title)
			}
		}
	}
	return b.String()
}

// FormatTopologyList renders the registered topology presets with their
// hop structure — the text every CLI prints for -list-topologies. Chain
// specs ("access(x4,5ms)->bn") are accepted anywhere a preset name is.
func FormatTopologyList() string {
	var b strings.Builder
	for _, name := range netem.TopologyNames() {
		ts, err := netem.ParseTopology(name)
		if err != nil {
			continue
		}
		var hops []string
		for _, l := range ts.Links {
			hops = append(hops, l.Name)
		}
		fmt.Fprintf(&b, "%-14s %-28s %s\n", name, strings.Join(hops, "->"), netem.TopologyDoc(name))
	}
	b.WriteString("or a chain spec: name(params,...)->... with params like 100mbps, x4, 5ms, droptail|pie|codel, buf=50ms, pattern=step:6:24:2000\n")
	return b.String()
}

// FormatTraceList renders the embedded capacity-trace corpus with each
// trace's span and rate range — the text every CLI prints for
// -list-traces.
func FormatTraceList() (string, error) {
	var b strings.Builder
	for _, name := range netem.TraceNames() {
		s, err := netem.LoadTrace(name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-12s %3d points, %5.1fs span, %5.1f-%5.1f Mbit/s (mean %5.1f)\n",
			name, len(s.Points), s.Span().Seconds(),
			s.MinBps()/1e6, s.MaxBps()/1e6, s.MeanBps(0, s.Span())/1e6)
	}
	return b.String(), nil
}
