package core

import (
	"fmt"
	"time"

	"starvation/internal/network"
	"starvation/internal/units"
)

// PigeonholeResult is the outcome of the Theorem 1 step-1 search: two link
// rates at least a factor s/f apart whose equilibrium delays collide within
// epsilon.
type PigeonholeResult struct {
	C1, C2 units.Rate
	Conv1  *Convergence
	Conv2  *Convergence
	// Epsilon is the collision tolerance used.
	Epsilon time.Duration
	// Tried lists every rate measured during the search (the λi sequence).
	Tried []SweepPoint
	// Found reports whether a colliding pair was found within the iteration
	// budget. For a delay-convergent CCA the theorem guarantees existence;
	// a budget exhaustion signals the CCA is *not* delay-convergent over
	// the explored range (e.g. dmax grows without bound).
	Found bool
}

// PigeonholeSearch walks the geometric rate sequence λi = λ0·(s/f)^i and
// returns the first pair (λi, λj), j > i, with |dmax(λi) − dmax(λj)| < eps
// for the registered CCA name.
// This is the pigeonhole argument of Theorem 1 made operational: because
// all dmax(·) values live in the bounded interval [Rm, dmax-bound], some
// pair of an infinite geometric sequence must collide.
func PigeonholeSearch(name string, rm time.Duration, s, fEff float64, eps time.Duration,
	lambda0 units.Rate, maxIter int, opts MeasureOpts) *PigeonholeResult {

	mk := newCCA(name)
	if s < 1 {
		s = 1
	}
	if fEff <= 0 || fEff > 1 {
		fEff = 1
	}
	growth := s / fEff
	if growth <= 1 {
		growth = 2
	}
	res := &PigeonholeResult{Epsilon: eps}
	if opts.Session == nil {
		// The search runs one identically shaped measurement per rate, the
		// ideal case for a recycled run context (sequential, so one
		// session serves the whole walk; measured values are unchanged).
		opts.Session = network.NewSession()
	}

	type measured struct {
		c    units.Rate
		conv *Convergence
	}
	var seen []measured
	c := lambda0
	for i := 0; i < maxIter; i++ {
		conv := measure(mk(), c, rm, opts)
		res.Tried = append(res.Tried, SweepPoint{
			C: c, DMin: conv.DMin, DMax: conv.DMax,
			Delta: conv.Delta, Efficiency: conv.efficiency(),
		})
		for _, m := range seen {
			diff := conv.DMax - m.conv.DMax
			if diff < 0 {
				diff = -diff
			}
			if diff < eps {
				res.C1, res.C2 = m.c, c
				res.Conv1, res.Conv2 = m.conv, conv
				res.Found = true
				return res
			}
		}
		seen = append(seen, measured{c, conv})
		c = units.Rate(float64(c) * growth)
	}
	return res
}

// String summarizes the search.
func (r *PigeonholeResult) String() string {
	if !r.Found {
		return fmt.Sprintf("no colliding pair within %d rates (eps=%v)", len(r.Tried), r.Epsilon)
	}
	return fmt.Sprintf("C1=%v (dmax=%v)  C2=%v (dmax=%v)  ratio=%.1f  eps=%v",
		r.C1, r.Conv1.DMax.Round(10*time.Microsecond),
		r.C2, r.Conv2.DMax.Round(10*time.Microsecond),
		float64(r.C2)/float64(r.C1), r.Epsilon)
}
