package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nimbus/internal/netem"
	"nimbus/internal/runner"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	// Every experiment in the DESIGN.md index must be present.
	want := []string{
		"fig01", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08",
		"fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
		"fig23", "fig24", "fig25", "fig26", "table1", "tableE", "mobile",
		"coexist", "topo", "churn", "fidelity",
	}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Fatalf("registry missing %s", id)
		}
	}
	if len(Registry) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(Registry), len(want))
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("IDs() returned %d", len(ids))
	}
}

func TestEveryExperimentHasFamily(t *testing.T) {
	for _, id := range IDs() {
		if FamilyOf(id) == "" {
			t.Errorf("experiment %s belongs to no family; add one to exp.Families", id)
		}
	}
	list := FormatExperimentList()
	for _, f := range Families {
		if !strings.Contains(list, f.Name+": ") {
			t.Errorf("FormatExperimentList missing family header %q", f.Name)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", 1, true); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

// The shared -cpuprofile/-memprofile plumbing writes both profiles when
// the stop func runs, and nothing when both paths are empty.
func TestStartProfiles(t *testing.T) {
	stop, err := StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	stop()
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err = StartProfiles(cpu, mem)
	if err != nil && strings.Contains(err.Error(), "already in use") {
		t.Skip("the test binary is already CPU-profiling")
	}
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, f := range []string{cpu, mem} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("%s: not written (%v)", f, err)
		}
	}
	if _, err := StartProfiles(filepath.Join(dir, "no", "such", "dir"), ""); err == nil {
		t.Error("an uncreatable -cpuprofile path should fail")
	}
}

func TestMustSchemeNames(t *testing.T) {
	names := []string{
		"cubic", "reno", "vegas", "copa", "copa-default", "bbr", "vivace",
		"compound", "fixedwindow", "nimbus", "nimbus-copa", "nimbus-vegas",
		"nimbus-reno", "nimbus-delay", "nimbus-competitive",
	}
	for _, n := range names {
		s := MustScheme(n, 96e6)
		if s.Ctrl == nil {
			t.Fatalf("scheme %s has nil controller", n)
		}
		if s.Name != n {
			t.Fatalf("scheme %s reports Name %q", n, s.Name)
		}
		if strings.HasPrefix(n, "nimbus") && s.Nimbus == nil {
			t.Fatalf("scheme %s should expose Nimbus", n)
		}
		if strings.HasPrefix(n, "copa") && s.Copa == nil {
			t.Fatalf("scheme %s should expose Copa", n)
		}
	}
	// Parameterized specs resolve through the same registry.
	s := MustScheme("nimbus(pulse=0.1,mu=est,multiflow=true)", 96e6)
	if s.Nimbus == nil || s.Name != "nimbus" {
		t.Fatalf("parameterized nimbus: %+v", s)
	}
}

func TestMustSchemeUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown scheme")
		}
	}()
	MustScheme("quic", 96e6)
}

func TestBuildSchemeRejectsBadParams(t *testing.T) {
	bad := []string{
		"cubic(pulse=0.1)", "nimbus(mu=maybe)", "nimbus(pulse=zero)", "copa(delta=-1)",
		"nimbus(rfft)", // a removed option must fail, not be ignored
	}
	for _, s := range bad {
		sp, err := spec.Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if _, err := BuildScheme(sp, 96e6, nil); err == nil {
			t.Errorf("BuildScheme(%q) accepted a bad spec", s)
		}
	}
}

func TestNewRigAQMs(t *testing.T) {
	for _, aqm := range []string{"droptail", "pie", "codel", ""} {
		r := NewRig(NetConfig{RateMbps: 96, RTT: 50 * sim.Millisecond, AQM: aqm, Seed: 1})
		if r.Link == nil || r.Net == nil {
			t.Fatalf("rig for %q incomplete", aqm)
		}
	}
}

func TestAddCrossKinds(t *testing.T) {
	for _, kind := range []string{"none", "cubic", "reno", "poisson", "cbr", "trace", "video4k", "video1080p"} {
		r := NewRig(NetConfig{RateMbps: 96, RTT: 50 * sim.Millisecond, Seed: 1})
		if err := AddCross(r, kind, 24e6, 50*sim.Millisecond); err != nil {
			t.Fatalf("AddCross(%s): %v", kind, err)
		}
		r.Sch.RunUntil(200 * sim.Millisecond) // must not panic
	}
	r := NewRig(NetConfig{RateMbps: 96, RTT: 50 * sim.Millisecond, Seed: 1})
	if err := AddCross(r, "bogus", 0, 0); err == nil {
		t.Fatal("expected error for unknown cross kind")
	}
}

func TestFig07PulseChecks(t *testing.T) {
	r := Fig07()
	if r.PeakFracOfMu < 0.249 || r.PeakFracOfMu > 0.251 {
		t.Fatalf("peak = %v", r.PeakFracOfMu)
	}
	if r.TroughFracOfMu < 0.082 || r.TroughFracOfMu > 0.085 {
		t.Fatalf("trough = %v", r.TroughFracOfMu)
	}
	if r.MeanFracOfMu > 1e-3 {
		t.Fatalf("mean = %v", r.MeanFracOfMu)
	}
	if r.BurstFracOfBDP < 0.035 || r.BurstFracOfBDP > 0.045 {
		t.Fatalf("burst/BDP = %v, paper says ~0.04", r.BurstFracOfBDP)
	}
}

func TestFig05Shape(t *testing.T) {
	rows := Fig05(1)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	elastic, inelastic := rows[0], rows[1]
	if !elastic.Elastic || inelastic.Elastic {
		t.Fatal("row order wrong")
	}
	if elastic.Eta < 2 {
		t.Fatalf("elastic eta = %v, want >= 2", elastic.Eta)
	}
	if inelastic.Eta >= 2 {
		t.Fatalf("inelastic eta = %v, want < 2", inelastic.Eta)
	}
	// The discriminating quantity is eta (a ratio); the absolute peak
	// magnitudes depend on the operating mode but must still separate.
	if elastic.PeakAt5 < 1.5*inelastic.PeakAt5 {
		t.Fatalf("5 Hz peak separation too small: %v vs %v", elastic.PeakAt5, inelastic.PeakAt5)
	}
}

func TestFig04Shape(t *testing.T) {
	rows := Fig04(1)
	el, inel := rows[0], rows[1]
	if el.ZOscillation < 2*inel.ZOscillation {
		t.Fatalf("elastic z oscillation %v not clearly above inelastic %v",
			el.ZOscillation, inel.ZOscillation)
	}
	if el.S.Len() == 0 || el.Z.Len() == 0 {
		t.Fatal("series empty")
	}
}

func TestFig03SelfDelayRatios(t *testing.T) {
	res := RunFig03(1)
	// The paper's point: the ratios are similar in both phases, near
	// the flow's throughput share. Allow a broad band.
	if res.ElasticSelfRatio < 0.2 || res.ElasticSelfRatio > 0.8 {
		t.Fatalf("elastic self ratio = %v", res.ElasticSelfRatio)
	}
	if res.InelasticSelfRatio < 0.2 {
		t.Fatalf("inelastic self ratio = %v", res.InelasticSelfRatio)
	}
	diff := res.ElasticSelfRatio - res.InelasticSelfRatio
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.45 {
		t.Fatalf("self ratios should be indistinguishable-ish: %v vs %v",
			res.ElasticSelfRatio, res.InelasticSelfRatio)
	}
}

func TestFig23HighCBRShape(t *testing.T) {
	// The key claim of App D.1: at 80 Mbit/s CBR Copa misclassifies
	// (high wrong-mode fraction and delay), Nimbus does not.
	copa := RunFig23Point("copa", 80, 1, 40*sim.Second)
	nimb := RunFig23Point("nimbus", 80, 1, 40*sim.Second)
	if nimb.WrongModeFrac > 0.3 {
		t.Fatalf("nimbus wrong-mode at 80M CBR = %v", nimb.WrongModeFrac)
	}
	if copa.WrongModeFrac < nimb.WrongModeFrac {
		t.Fatalf("copa (%v) should be worse than nimbus (%v) at high CBR",
			copa.WrongModeFrac, nimb.WrongModeFrac)
	}
}

func TestPaths25Properties(t *testing.T) {
	paths := Paths25()
	if len(paths) != 25 {
		t.Fatalf("got %d paths", len(paths))
	}
	policers, varying := 0, 0
	names := map[string]bool{}
	for _, p := range paths {
		if names[p.Name] {
			t.Fatalf("duplicate path name %s", p.Name)
		}
		names[p.Name] = true
		if p.RateMbps <= 0 || p.RTT <= 0 || p.Buffer <= 0 {
			t.Fatalf("invalid path %+v", p)
		}
		if p.Policer {
			policers++
		}
		if p.Pattern != "" {
			varying++
			if _, err := netem.ParsePattern(p.Pattern, p.RateMbps*1e6); err != nil {
				t.Fatalf("path %s has unparseable pattern %q: %v", p.Name, p.Pattern, err)
			}
		}
	}
	if policers == 0 {
		t.Fatal("suite needs lossy/policed paths")
	}
	if policers > 12 {
		t.Fatal("too many policed paths; Fig 19 needs paths with queueing")
	}
	if varying < 3 {
		t.Fatalf("suite should include time-varying paths, got %d", varying)
	}
}

func TestParallelFigureDeterminism(t *testing.T) {
	// The acceptance bar for the sweep engine: running a figure grid on N
	// workers must produce byte-identical reports to a sequential run.
	// Fig22 (4 cells in quick mode at a shortened horizon) keeps this fast.
	old := Workers
	defer func() { Workers = old }()

	run := func(w int) string {
		Workers = w
		rows := mapCells(2, func(i int) Fig22Row {
			return RunFig22Point([]float64{0.5, 2}[i], 1, 10*sim.Second)
		})
		return FormatFig22(rows)
	}
	seq := run(1)
	for _, w := range []int{2, 8} {
		if par := run(w); par != seq {
			t.Fatalf("workers=%d report differs from sequential:\n%s\nvs\n%s", w, par, seq)
		}
	}
}

func TestRunScenarioMetrics(t *testing.T) {
	r := RunScenario(runner.Scenario{
		Name: "smoke", RateMbps: 48, RTTms: 50, BufferMs: 100,
		Scheme: spec.MustParse("nimbus"), Cross: "poisson", CrossRateMbps: 12,
		DurationSec: 8, Seed: 7,
	})
	if r.Err != "" {
		t.Fatalf("scenario failed: %s", r.Err)
	}
	if r.Events == 0 {
		t.Fatal("no simulator events recorded")
	}
	m := r.Metrics
	if m["mean_mbps"] <= 1 || m["mean_mbps"] > 48 {
		t.Fatalf("mean_mbps = %v, want within (1, 48]", m["mean_mbps"])
	}
	if _, ok := m["mode_switches"]; !ok {
		t.Fatal("nimbus scheme should report mode telemetry")
	}
	// Unknown cross kinds surface as error rows, not panics.
	bad := RunScenario(runner.Scenario{RateMbps: 48, RTTms: 50, Scheme: spec.MustParse("cubic"), Cross: "flood", DurationSec: 1})
	if bad.Err == "" {
		t.Fatal("bad cross kind should produce an error row")
	}
}

func TestFormattersNonEmpty(t *testing.T) {
	// Cheap formatting checks (no simulation).
	if s := FormatFig07(Fig07()); !strings.Contains(s, "pulse") {
		t.Fatal("fig07 format")
	}
	if s := FormatTable1([]Table1Row{{CrossTraffic: "x", PaperSays: "Elastic", Classified: "Elastic"}}); !strings.Contains(s, "Table 1") {
		t.Fatal("table1 format")
	}
	if s := FormatFig14(Fig14Result{}); !strings.Contains(s, "Fig 14") {
		t.Fatal("fig14 format")
	}
}
