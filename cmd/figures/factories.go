package main

import (
	"starvation/internal/cca"
	"starvation/internal/cca/vegas"
	"starvation/internal/core"
	"starvation/internal/rng"
)

// ccaFactory adapts the registry (filled by the CCA packages that
// internal/scenario imports) to core.Factory with a fixed seed per
// instantiation, so every measurement run is reproducible.
func ccaFactory(name string) core.Factory {
	f := cca.Lookup(name)
	if f == nil {
		panic("unknown CCA " + name)
	}
	return func() cca.Algorithm {
		return f(1500, rng.New(7))
	}
}

// vegasRestartable builds Vegas flows for the Theorem 1/2 constructions:
// fresh for probe runs, restarted at the converged state (window plus the
// learned baseRTT) otherwise.
func vegasRestartable(conv *core.Convergence) cca.Algorithm {
	if conv == nil {
		return vegas.New(vegas.Config{})
	}
	v := vegas.New(vegas.Config{BaseRTT: conv.Rm})
	v.SetCwndPkts(conv.FinalCwndPkts)
	return v
}
