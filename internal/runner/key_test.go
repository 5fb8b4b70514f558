package runner

import (
	"fmt"
	"reflect"
	"testing"

	"nimbus/internal/scheme"
)

// keyExempt lists the Scenario fields deliberately excluded from Key():
// Name is a display label derived from the swept axes, and RunSeed is
// itself derived from the key, so including either would be circular.
var keyExempt = map[string]bool{
	"Name":    true,
	"RunSeed": true,
}

// TestKeyCoversEveryField perturbs each Scenario field by reflection and
// requires Key() to change. It fails the moment someone adds a field to
// Scenario without encoding it in Key() (or consciously exempting it),
// which would silently give distinct scenarios the same random stream.
func TestKeyCoversEveryField(t *testing.T) {
	base := Scenario{}
	baseKey := base.Key()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		probe := base
		fv := reflect.ValueOf(&probe).Elem().Field(i)
		switch {
		case f.Type == reflect.TypeOf(scheme.Spec{}):
			fv.Set(reflect.ValueOf(scheme.MustParse("probe-scheme")))
		case f.Type.Kind() == reflect.String:
			fv.SetString("probe-" + f.Name)
		case f.Type.Kind() == reflect.Float64:
			fv.SetFloat(123.456)
		case f.Type.Kind() == reflect.Int64 || f.Type.Kind() == reflect.Int:
			fv.SetInt(987654321)
		case f.Type.Kind() == reflect.Bool:
			fv.SetBool(true)
		default:
			t.Fatalf("field %s has kind %s: teach this test how to perturb it", f.Name, f.Type.Kind())
		}
		changed := probe.Key() != baseKey
		if keyExempt[f.Name] {
			if changed {
				t.Errorf("field %s is exempt from Key() but changes it; drop the exemption", f.Name)
			}
			continue
		}
		if !changed {
			t.Errorf("field %s is not encoded in Scenario.Key(): two scenarios differing only in %s would share a random stream", f.Name, f.Name)
		}
	}
}

// TestCacheKeyCoversEveryField perturbs each Scenario field by reflection
// and requires CacheKey() to change. The cache key is what the experiment
// service stores results under, so the bar is stricter than Key()'s:
// every field except the Name display label must reach it — including
// RunSeed, which Key() omits (it is derived from the key) but which
// changes what the simulation actually runs. Adding a Scenario field
// without invalidating cached results is therefore impossible: the field
// must flow into Key() (and hence CacheKey) or be consciously exempted
// here AND in keyExempt.
func TestCacheKeyCoversEveryField(t *testing.T) {
	const version = "codev1"
	base := Scenario{}
	baseKey := base.CacheKey(version)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		probe := base
		fv := reflect.ValueOf(&probe).Elem().Field(i)
		switch {
		case f.Type == reflect.TypeOf(scheme.Spec{}):
			fv.Set(reflect.ValueOf(scheme.MustParse("probe-scheme")))
		case f.Type.Kind() == reflect.String:
			fv.SetString("probe-" + f.Name)
		case f.Type.Kind() == reflect.Float64:
			fv.SetFloat(123.456)
		case f.Type.Kind() == reflect.Int64 || f.Type.Kind() == reflect.Int:
			fv.SetInt(987654321)
		case f.Type.Kind() == reflect.Bool:
			fv.SetBool(true)
		default:
			t.Fatalf("field %s has kind %s: teach this test how to perturb it", f.Name, f.Type.Kind())
		}
		changed := probe.CacheKey(version) != baseKey
		if f.Name == "Name" {
			if changed {
				t.Errorf("display label %s changes CacheKey(); equivalent scenarios with different labels would re-simulate", f.Name)
			}
			continue
		}
		if !changed {
			t.Errorf("field %s is not encoded in Scenario.CacheKey(): changing %s would serve a stale cached result", f.Name, f.Name)
		}
	}
}

// TestCacheKeyComposition pins the exact Key()/seed/codeVersion layout so
// the on-disk cache address of every existing result is stable: a change
// here invalidates every cache directory in the wild and must be
// deliberate.
func TestCacheKeyComposition(t *testing.T) {
	sc := Scenario{RateMbps: 96, RTTms: 50, BufferMs: 100, DurationSec: 30, Seed: 7}
	want := sc.Key() + "/7/v-abc"
	if got := sc.CacheKey("v-abc"); got != want {
		t.Fatalf("CacheKey = %q, want %q", got, want)
	}
	// RunSeed overrides the user seed in the composition: it is what the
	// simulation actually runs with.
	sc.RunSeed = 42
	want = sc.Key() + "/42/v-abc"
	if got := sc.CacheKey("v-abc"); got != want {
		t.Fatalf("CacheKey with RunSeed = %q, want %q", got, want)
	}
	// A code-version change misses; a seed change misses.
	keys := map[string]bool{
		sc.CacheKey("v-abc"): true,
		sc.CacheKey("v-def"): true,
	}
	sc.RunSeed = 43
	keys[sc.CacheKey("v-abc")] = true
	if len(keys) != 3 {
		t.Fatalf("cache keys collide across code versions / run seeds: %v", keys)
	}
}

// TestKeyDistinguishesNewAxes pins the concrete encodings of the
// time-varying and topology axes (a regression guard beyond the
// reflection sweep).
func TestKeyDistinguishesNewAxes(t *testing.T) {
	a := Scenario{RateMbps: 48, LinkTrace: "cell-ramp"}
	b := Scenario{RateMbps: 48, LinkTrace: "outage"}
	c := Scenario{RateMbps: 48, RatePattern: "step:6:24:2000"}
	d := Scenario{RateMbps: 48, Topology: "parking-lot"}
	e := Scenario{RateMbps: 48, Topology: "access(x4,5ms)->bn"}
	f := Scenario{RateMbps: 48, Churn: "bulk(load=24)"}
	g := Scenario{RateMbps: 48, Churn: "web(load=24)"}
	h := Scenario{RateMbps: 48, FluidCross: "on"}
	i := Scenario{RateMbps: 48, FluidCross: "dt=5ms"}
	keys := map[string]string{}
	for _, sc := range []Scenario{a, b, c, d, e, f, g, h, i, {RateMbps: 48}} {
		k := sc.Key()
		if prev, dup := keys[k]; dup {
			t.Fatalf("key collision between %q and %q: %s", prev, fmt.Sprintf("%+v", sc), k)
		}
		keys[k] = fmt.Sprintf("%+v", sc)
	}
}
