package core

import (
	"fmt"

	"nimbus/internal/cc"
	"nimbus/internal/scheme"
	"nimbus/internal/transport"
)

// The Nimbus scheme family registers itself here: the paper's default
// (Cubic + BasicDelay) and its sub-algorithm variants, plus the pinned
// single-mode ablations. The typed parameters replace the old SchemeOpts
// grab-bag — every knob an experiment used to set through options is a
// declared, documented spec parameter ("nimbus(pulse=0.1,mu=est)").

// nimbusParams are the parameters shared by the whole family; switching
// schemes additionally declare "start".
func nimbusParams() []scheme.Param {
	return []scheme.Param{
		{Name: "pulse", Kind: scheme.KindFloat, Default: scheme.Num(0.25),
			Doc: "pulse peak amplitude as a fraction of µ"},
		{Name: "fp", Kind: scheme.KindFloat, Default: scheme.Num(0),
			Doc: "pulse frequency in Hz (0 = per-mode defaults: 5 competitive, 5 or 6 delay)"},
		{Name: "mu", Kind: scheme.KindString, Default: scheme.Str("oracle"),
			Enum: []string{"oracle", "est"},
			Doc:  "µ source: the true link rate, or the BBR-style max-receive-rate estimator"},
		{Name: "multiflow", Kind: scheme.KindBool, Default: scheme.Flag(false),
			Doc: "enable the pulser/watcher multi-flow protocol (§6)"},
	}
}

// registerNimbus registers one family member. delay/comp build the
// sub-algorithms (nil delay = BasicDelay, nil comp = Cubic); pinned
// members stay in startMode forever and do not declare "start".
func registerNimbus(name, doc string, delay, comp func() WindowCC, pinned bool, startMode Mode) {
	params := nimbusParams()
	if !pinned {
		params = append(params, scheme.Param{
			Name: "start", Kind: scheme.KindString, Default: scheme.Str("delay"),
			Enum: []string{"delay", "competitive"},
			Doc:  "initial mode (against bistable cross traffic the start selects the equilibrium)",
		})
	}
	scheme.Register(name, doc, params, func(ctx scheme.BuildContext, a scheme.Args) (transport.Controller, error) {
		if a.Float("pulse") <= 0 {
			return nil, fmt.Errorf("pulse must be > 0, got %g", a.Float("pulse"))
		}
		if a.Float("fp") < 0 {
			return nil, fmt.Errorf("fp must be >= 0, got %g", a.Float("fp"))
		}
		// "oracle" means the true link rate: the context's µ estimator
		// when the rig supplies one (time-varying links pass the link
		// oracle), the fixed nominal rate otherwise. An explicit "est"
		// always gets the estimator — the context must not silently
		// upgrade a flow that asked to live without oracle knowledge.
		var mu MuEstimator
		switch {
		case a.Str("mu") == "est":
			mu = NewMaxReceiveRate(0)
		case ctx.Mu != nil:
			mu = ctx.Mu
		default:
			mu = Oracle{Rate: ctx.MuBps}
		}
		cfg := Config{
			Mu:            mu,
			PulseFraction: a.Float("pulse"),
			MultiFlow:     a.Bool("multiflow"),
			Pinned:        pinned,
			StartMode:     startMode,
		}
		if comp != nil {
			cfg.Competitive = comp()
		} else {
			cfg.Competitive = cc.NewCubic()
		}
		if delay != nil {
			cfg.Delay = delay()
		}
		if !pinned && a.Str("start") == "competitive" {
			cfg.StartMode = ModeCompetitive
		}
		if fp := a.Float("fp"); fp > 0 {
			cfg.FreqCompetitive = fp
			if !cfg.MultiFlow {
				cfg.FreqDelay = fp
			} else {
				cfg.FreqDelay = fp + 1
			}
		}
		return NewNimbus(cfg), nil
	})
}

func init() {
	registerNimbus("nimbus", "Nimbus: Cubic + BasicDelay with elasticity-based mode switching (the paper's default)",
		nil, nil, false, ModeDelay)
	registerNimbus("nimbus-copa", "Nimbus with Copa default mode as the delay-control algorithm",
		func() WindowCC { return cc.NewCopaDefaultMode() }, nil, false, ModeDelay)
	registerNimbus("nimbus-vegas", "Nimbus with Vegas as the delay-control algorithm",
		func() WindowCC { return cc.NewVegas() }, nil, false, ModeDelay)
	registerNimbus("nimbus-reno", "Nimbus with NewReno as the TCP-competitive algorithm",
		nil, func() WindowCC { return cc.NewReno() }, false, ModeDelay)
	registerNimbus("nimbus-delay", "delay-control pinned: no mode switching (Fig. 1b's baseline)",
		nil, nil, true, ModeDelay)
	registerNimbus("nimbus-competitive", "TCP-competitive pinned: no mode switching (ablation)",
		nil, nil, true, ModeCompetitive)
}
