package exp

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"nimbus/internal/crosstraffic"
	"nimbus/internal/netem"
	"nimbus/internal/runner"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
	"nimbus/internal/workload"
)

// ParseFlowMix parses the compact flow-mix syntax scenarios and CLIs use
// to describe a heterogeneous flow set on one bottleneck:
//
//	MIX  := ITEM ("+" ITEM)*
//	ITEM := SPEC ["*" COUNT] ["@" START [":" STOP]]
//
// SPEC is a scheme spec ("nimbus", "copa(delta=0.1)"); COUNT is how many
// copies; START and STOP are seconds. "+" and "@" inside a spec's
// parentheses do not delimit. Examples:
//
//	nimbus+cubic               — one Nimbus and one Cubic flow from t=0
//	nimbus*2+cubic@10          — two Nimbus flows, a Cubic joining at 10 s
//	nimbus+bbr@5:25            — a BBR flow active only during [5 s, 25 s)
//	nimbus(mu=est)+copa(delta=0.1)*3
func ParseFlowMix(mix string) ([]FlowSpec, error) {
	items := spec.SplitTop(mix, '+')
	if len(items) == 0 {
		return nil, fmt.Errorf("exp: empty flow mix %q", mix)
	}
	out := make([]FlowSpec, 0, len(items))
	for _, item := range items {
		fs := FlowSpec{Count: 1}

		rest := item
		if at := lastTop(rest, '@'); at >= 0 {
			window := rest[at+1:]
			rest = rest[:at]
			start, stop, ok := strings.Cut(window, ":")
			fromSec, err := strconv.ParseFloat(strings.TrimSpace(start), 64)
			if err != nil || fromSec < 0 {
				return nil, fmt.Errorf("exp: flow mix item %q: bad start time %q", item, start)
			}
			fs.StartAt = sim.FromSeconds(fromSec)
			if ok {
				toSec, err := strconv.ParseFloat(strings.TrimSpace(stop), 64)
				if err != nil || toSec <= fromSec {
					return nil, fmt.Errorf("exp: flow mix item %q: bad stop time %q", item, stop)
				}
				fs.StopAt = sim.FromSeconds(toSec)
			}
		}
		if star := lastTop(rest, '*'); star >= 0 {
			n, err := strconv.Atoi(strings.TrimSpace(rest[star+1:]))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("exp: flow mix item %q: bad count %q", item, rest[star+1:])
			}
			fs.Count = n
			rest = rest[:star]
		}
		sp, err := spec.Parse(rest)
		if err != nil {
			return nil, fmt.Errorf("exp: flow mix item %q: %w", item, err)
		}
		fs.Scheme = sp
		out = append(out, fs)
	}
	return out, nil
}

// FormatFlowMix renders flow specs back into the mix syntax (canonical
// spec strings, counts and windows only when set).
func FormatFlowMix(specs []FlowSpec) string {
	parts := make([]string, len(specs))
	for i, fs := range specs {
		s := fs.Scheme.String()
		if fs.Count > 1 {
			s += fmt.Sprintf("*%d", fs.Count)
		}
		if fs.StopAt > 0 {
			s += fmt.Sprintf("@%g:%g", fs.StartAt.Seconds(), fs.StopAt.Seconds())
		} else if fs.StartAt > 0 {
			s += fmt.Sprintf("@%g", fs.StartAt.Seconds())
		}
		parts[i] = s
	}
	return strings.Join(parts, "+")
}

// CanonicalGrid is the one front door for grids from outside the
// program (CLI flags, -grid files, POST /jobs). Spec strings enter
// Scenario.Key verbatim, so it rewrites topologies, flow mixes, churn and
// fluid specs, in the base and on every axis, to their canonical
// spelling ("" stays ""), and checks that every scheme, including each
// flow mix item's, builds. Errors name the JSON field ("topologies[1]:
// ..."). Rewritten axes are fresh slices; g's are never written.
func CanonicalGrid(g runner.Grid) (runner.Grid, error) {
	var err error
	if !g.Base.Scheme.Zero() {
		if err := validateScheme(g.Base.Scheme); err != nil {
			return runner.Grid{}, fmt.Errorf("base.scheme: %w", err)
		}
	}
	for i, sp := range g.Schemes {
		if err := validateScheme(sp); err != nil {
			return runner.Grid{}, fmt.Errorf("schemes[%d]: %w", i, err)
		}
	}
	if g.Base.Topology, g.Topologies, err = canonicalAxis("topology", "topologies", g.Base.Topology, g.Topologies, netem.CanonicalTopology); err != nil {
		return runner.Grid{}, err
	}
	if g.Base.FlowMix, g.FlowMixes, err = canonicalAxis("flow_mix", "flow_mixes", g.Base.FlowMix, g.FlowMixes, canonicalFlowMix); err != nil {
		return runner.Grid{}, err
	}
	if g.Base.Churn, g.Churns, err = canonicalAxis("churn", "churns", g.Base.Churn, g.Churns, func(s string) (string, error) {
		w, err := workload.ParseSpec(s)
		return w.String(), err
	}); err != nil {
		return runner.Grid{}, err
	}
	if g.Base.FluidCross, g.Fluids, err = canonicalAxis("fluid_cross", "fluids", g.Base.FluidCross, g.Fluids, func(s string) (string, error) {
		f, err := crosstraffic.ParseFluidSpec(s)
		return f.String(), err
	}); err != nil {
		return runner.Grid{}, err
	}
	return g, nil
}

// canonicalAxis applies one canonicalization rule to a base field and its
// sweep axis, returning the axis as a fresh slice.
func canonicalAxis(baseField, axisField, base string, axis []string, canon func(string) (string, error)) (string, []string, error) {
	if base != "" {
		c, err := canon(base)
		if err != nil {
			return "", nil, fmt.Errorf("base.%s: %w", baseField, err)
		}
		base = c
	}
	axis = slices.Clone(axis)
	for i, s := range axis {
		if s == "" {
			continue
		}
		c, err := canon(s)
		if err != nil {
			return "", nil, fmt.Errorf("%s[%d]: %w", axisField, i, err)
		}
		axis[i] = c
	}
	return base, axis, nil
}

// canonicalFlowMix validates a flow mix, including every item's scheme,
// and renders it in canonical form.
func canonicalFlowMix(mix string) (string, error) {
	fss, err := ParseFlowMix(mix)
	if err != nil {
		return "", err
	}
	for _, fs := range fss {
		if err := validateScheme(fs.Scheme); err != nil {
			return "", err
		}
	}
	return FormatFlowMix(fss), nil
}

// validSchemes memoizes scheme.Validate's successes by spec string, up to
// maxValidSchemes entries: registrations never change, and the trial
// build (a Nimbus detector's FFT plan) would dominate each POST /jobs.
var (
	validSchemes  sync.Map // spec string -> struct{}
	nValidSchemes atomic.Int64
)

const maxValidSchemes = 1024

func validateScheme(sp spec.Spec) error {
	key := sp.String()
	if _, ok := validSchemes.Load(key); ok {
		return nil
	}
	if err := spec.Validate(sp); err != nil {
		return err
	}
	if nValidSchemes.Add(1) <= maxValidSchemes {
		validSchemes.Store(key, struct{}{})
	}
	return nil
}

// lastTop returns the index of the last occurrence of sep at parenthesis
// depth zero, or -1.
func lastTop(s string, sep byte) int {
	depth := 0
	last := -1
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			if depth > 0 {
				depth--
			}
		case sep:
			if depth == 0 {
				last = i
			}
		}
	}
	return last
}
