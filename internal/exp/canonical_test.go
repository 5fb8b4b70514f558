package exp

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nimbus/internal/runner"
)

// decodeGrid decodes a grid document the way nimbus-bench -grid and
// POST /jobs do.
func decodeGrid(t *testing.T, doc string) runner.Grid {
	t.Helper()
	var g runner.Grid
	if err := json.Unmarshal([]byte(doc), &g); err != nil {
		t.Fatalf("%s: %v", doc, err)
	}
	return g
}

func mustCanonical(t *testing.T, g runner.Grid) runner.Grid {
	t.Helper()
	c, err := CanonicalGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Equivalent spellings of a spec must canonicalize to the same grid, so
// every expanded cell gets the same key and derived seed.
func TestCanonicalGridEquivalentSpellings(t *testing.T) {
	const base = `"base": {"scheme": "cubic", "rate_mbps": 48, "duration_sec": 2, "seed": 1`
	for _, pair := range [][2]string{
		{`{` + base + `}, "churns": ["bulk(load=24.0)"]}`, `{` + base + `}, "churns": ["bulk(load=24)"]}`},
		{`{` + base + `, "churn": "bulk(load=24.0)"}}`, `{` + base + `, "churn": "bulk(load=24)"}}`},
		{`{` + base + `}, "topologies": ["single"]}`, `{` + base + `}, "topologies": [""]}`},
		{`{` + base + `, "topology": "single"}}`, `{` + base + `}}`},
		{`{` + base + `}, "fluids": ["off"]}`, `{` + base + `}, "fluids": [""]}`},
		{`{` + base + `, "fluid_cross": "off"}}`, `{` + base + `}}`},
		{`{` + base + `}, "flow_mixes": ["nimbus + cubic"]}`, `{` + base + `}, "flow_mixes": ["nimbus+cubic"]}`},
		{`{` + base + `, "flow_mix": "nimbus + cubic"}}`, `{` + base + `, "flow_mix": "nimbus+cubic"}}`},
	} {
		a := mustCanonical(t, decodeGrid(t, pair[0]))
		b := mustCanonical(t, decodeGrid(t, pair[1]))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s and %s canonicalize differently:\n%+v\n%+v", pair[0], pair[1], a, b)
			continue
		}
		sa, sb := a.Expand(), b.Expand()
		for i := range sa {
			if sa[i].Key() != sb[i].Key() || sa[i].RunSeed != sb[i].RunSeed {
				t.Errorf("%s vs %s: cell %d key/seed %q/%d vs %q/%d",
					pair[0], pair[1], i, sa[i].Key(), sa[i].RunSeed, sb[i].Key(), sb[i].RunSeed)
			}
		}
	}
}

// An invalid spec on any axis is an error naming its JSON field.
func TestCanonicalGridRejectsInvalidSpecs(t *testing.T) {
	for _, c := range []struct{ doc, field string }{
		{`{"base": {"scheme": "nosuch"}}`, "base.scheme"},
		{`{"schemes": ["cubic", "nimbus(nosuch=1)"]}`, "schemes[1]"},
		{`{"base": {"topology": "nosuch"}}`, "base.topology"},
		{`{"topologies": ["single", "nosuch"]}`, "topologies[1]"},
		{`{"base": {"flow_mix": "nimbus*0"}}`, "base.flow_mix"},
		{`{"flow_mixes": ["nimbus+nosuch"]}`, "flow_mixes[0]"},
		{`{"base": {"churn": "nosuch(load=1)"}}`, "base.churn"},
		{`{"churns": ["bulk(load=24)", "bulk(nosuch=1)"]}`, "churns[1]"},
		{`{"base": {"fluid_cross": "sometimes"}}`, "base.fluid_cross"},
		{`{"fluids": ["on", "dt=xyz"]}`, "fluids[1]"},
	} {
		_, err := CanonicalGrid(decodeGrid(t, c.doc))
		if err == nil || !strings.HasPrefix(err.Error(), c.field+": ") {
			t.Errorf("%s: got error %v, want one naming %s", c.doc, err, c.field)
		}
	}
}

func TestCanonicalGridIdempotent(t *testing.T) {
	g := mustCanonical(t, decodeGrid(t, `{
		"base": {"scheme": "nimbus( pulse = 0.125 )", "topology": "single", "churn": "web( load = 12 )", "fluid_cross": "on"},
		"schemes": ["cubic", "copa(delta=0.10)"],
		"topologies": ["access-hop", "access(x4,5ms) -> bn", ""],
		"flow_mixes": ["nimbus*2 + cubic@10", "nimbus+bbr@5:25"],
		"churns": ["bulk(load=24.0)"],
		"fluids": ["off", "dt=5ms", "dt=10ms"]
	}`))
	if again := mustCanonical(t, g); !reflect.DeepEqual(again, g) {
		t.Fatalf("not idempotent:\n%+v\n%+v", g, again)
	}
}

// CanonicalGrid returns fresh axis slices: the caller's, including
// package-level axes like CoexistMixes, are never written.
func TestCanonicalGridLeavesInputUntouched(t *testing.T) {
	want := slices.Clone(CoexistMixes)
	c := mustCanonical(t, CoexistGrid(1, true))
	if !slices.Equal(CoexistMixes, want) {
		t.Fatalf("CoexistMixes changed: %q, want %q", CoexistMixes, want)
	}
	if &c.FlowMixes[0] == &CoexistMixes[0] {
		t.Fatal("canonical grid aliases CoexistMixes")
	}
	mixes := []string{"nimbus + cubic"}
	if c := mustCanonical(t, runner.Grid{FlowMixes: mixes}); c.FlowMixes[0] != "nimbus+cubic" || mixes[0] != "nimbus + cubic" {
		t.Fatalf("canonical %q, input after %q", c.FlowMixes, mixes)
	}
}

// The experiment families' grids are already canonical.
func TestCanonicalGridFamilyFixedPoints(t *testing.T) {
	for _, quick := range []bool{true, false} {
		for name, g := range map[string]runner.Grid{
			"churn":   ChurnGrid(1, quick),
			"coexist": CoexistGrid(1, quick),
			"mobile":  MobileGrid(1, quick),
		} {
			if c := mustCanonical(t, g); !reflect.DeepEqual(c, g) {
				t.Errorf("%s (quick=%v) is not a fixed point:\n%+v\n%+v", name, quick, g, c)
			}
		}
	}
}
