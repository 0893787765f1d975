// Package core implements the paper's primary contribution as executable
// machinery:
//
//   - measurement of delay-convergence (Definition 1): the equilibrium
//     delay interval [dmin(C), dmax(C)] and δ(C) of a CCA on an ideal path;
//   - rate-delay sweeps that regenerate Figures 2 and 3;
//   - the pigeonhole search of Theorem 1 step 1, which finds link rates
//     C1, C2 a factor ≥ s/f apart whose delay ranges collide;
//   - the delay-trajectory emulation of Theorem 1 step 3, which runs two
//     flows on a shared C1+C2 link while a bounded non-congestive delay
//     element makes each flow observe its single-flow trajectory, forcing a
//     throughput ratio ≥ s (starvation);
//   - the Theorem 2 construction (arbitrary under-utilization when
//     dmax(C) ≤ D);
//   - each registered CCA's contract, its predicted delay band, and the
//     §6.3 figure-of-merit formulas.
package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"starvation/internal/cca"
	"starvation/internal/endpoint"
	"starvation/internal/network"
	"starvation/internal/rng"
	"starvation/internal/trace"
	"starvation/internal/units"
)

// Convergence describes one CCA's equilibrium on one ideal path, i.e. one
// point of Definition 1.
type Convergence struct {
	C  units.Rate
	Rm time.Duration
	// DMin and DMax bound the RTT over the measurement window: the
	// [dmin(C), dmax(C)] of Definition 1.
	DMin, DMax time.Duration
	// Delta is DMax − DMin, the δ(C) of Definition 1.
	Delta time.Duration
	// Throughput is the steady-state throughput (for f-efficiency checks).
	Throughput units.Rate
	// SteadyMeanRTT is the mean RTT over the measurement window — the
	// center of the equilibrium band.
	SteadyMeanRTT time.Duration
	// ConvergedAt estimates T of Definition 1: the last time the RTT left
	// the equilibrium interval.
	ConvergedAt time.Duration
	// FinalCwndPkts is the window at the end of the run in
	// endpoint.DefaultMSS segments, used to restart a flow from its
	// converged state.
	FinalCwndPkts float64
	// RTT and Rate are the full recorded trajectories (the d(t) and r(t)
	// of the proof).
	RTT  *trace.Series
	Rate *trace.Series
}

// windowFrac is the trailing fraction of a measurement run taken as the
// equilibrium window: the last 40%.
const windowFrac = 0.4

// The seeds of core's runs. Every ideal-path measurement (and each
// Theorem 3 step) runs its network at measureSeed; the Theorem 1/2
// constructions run their emulated networks at emulationSeed. The two
// differ on purpose. Every CCA core builds by name draws from its own
// generator at measureCCASeed. Changing any of them moves every
// realization recorded under it.
const (
	measureSeed    = 1
	emulationSeed  = 0
	measureCCASeed = 7
)

// newCCA returns a builder of fresh instances of the registered CCA name,
// each with its own generator at measureCCASeed. An unregistered name
// panics with the registered ones, as network.New does on a bad spec.
func newCCA(name string) func() cca.Algorithm {
	f := cca.Lookup(name)
	if f == nil {
		panic(fmt.Sprintf("core: unknown CCA %q (registered: %s)", name, strings.Join(cca.Names(), ", ")))
	}
	return func() cca.Algorithm { return f(endpoint.DefaultMSS, rng.New(measureCCASeed)) }
}

// MeasureOpts tunes a convergence measurement.
type MeasureOpts struct {
	// Duration of the run (default 60 s).
	Duration time.Duration
	// Ctx, when non-nil, cancels the measurement's emulations at
	// run-tick granularity (observation-only until cancellation).
	Ctx context.Context
	// Session, when non-nil, runs the measurement through a reusable run
	// context that recycles event arenas and endpoint state across runs
	// instead of reallocating them. Measured values are bit-identical
	// with or without a session. Sessions are single-owner: never share
	// one across goroutines.
	Session *network.Session
}

func (o *MeasureOpts) fill() {
	if o.Duration <= 0 {
		o.Duration = 60 * time.Second
	}
}

// MeasureConvergence runs a single flow of the registered CCA name on an
// ideal path (constant rate C, propagation Rm, unbounded buffer, zero
// non-congestive delay) and reports its equilibrium delay interval.
func MeasureConvergence(name string, c units.Rate, rm time.Duration, opts MeasureOpts) *Convergence {
	return measure(newCCA(name)(), c, rm, opts)
}

// measure is MeasureConvergence of the instance alg.
func measure(alg cca.Algorithm, c units.Rate, rm time.Duration, opts MeasureOpts) *Convergence {
	opts.fill()
	cfg := network.Config{Rate: c, Seed: measureSeed, Ctx: opts.Ctx}
	spec := network.FlowSpec{Name: "probe", Alg: alg, Rm: rm}
	d := opts.Duration
	from := time.Duration((1 - windowFrac) * float64(d))
	res, err := opts.Session.RunWindow(cfg, d, from, d, spec)
	if err != nil {
		// The config is assembled here from checked inputs; a validation
		// failure is a programming error, as in network.New.
		panic(err.Error())
	}
	fr := res.Flows[0]

	conv := &Convergence{
		C:          c,
		Rm:         rm,
		DMin:       fr.Stat.SteadyRTTLo,
		DMax:       fr.Stat.SteadyRTTHi,
		Delta:      fr.Stat.SteadyRTTHi - fr.Stat.SteadyRTTLo,
		Throughput: fr.Stat.SteadyThpt,
		RTT:        fr.RTT,
		Rate:       fr.Rate,
	}
	conv.FinalCwndPkts = float64(alg.Window()) / float64(endpoint.DefaultMSS)
	conv.ConvergedAt = estimateConvergenceTime(fr.RTT, conv.DMin, conv.DMax)
	if m, ok := fr.RTT.Mean(from, d); ok {
		conv.SteadyMeanRTT = time.Duration(m * float64(time.Second))
	}
	return conv
}

// estimateConvergenceTime returns the time after which every RTT sample
// stayed within [lo, hi] (with a 1% margin), i.e. the T of Definition 1.
func estimateConvergenceTime(rtt *trace.Series, lo, hi time.Duration) time.Duration {
	margin := (hi - lo) / 100
	loS := (lo - margin).Seconds()
	hiS := (hi + margin).Seconds()
	var t time.Duration
	for _, p := range rtt.Points {
		if p.V < loS || p.V > hiS {
			t = p.T
		}
	}
	return t
}

// efficiency returns the achieved fraction of link capacity, the f of
// Definition 4 evaluated at this operating point.
func (c *Convergence) efficiency() float64 {
	if c.C <= 0 {
		return 0
	}
	return float64(c.Throughput) / float64(c.C)
}
