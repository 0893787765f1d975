package core

import (
	"context"
	"fmt"
	"time"

	"starvation/internal/cca"
	"starvation/internal/network"
	"starvation/internal/trace"
	"starvation/internal/units"
)

// StrongModelSpec configures the Theorem 3 construction (Appendix B): in
// the "strong" model the adversary may vary the link rate arbitrarily, so
// it can impose ANY queueing-delay trajectory. The proof builds a sequence
// of single-flow traces, each the previous one's delay lowered by D
// (clamped at zero), and shows that either two consecutive traces already
// differ in throughput by a factor s — in which case running both flows on
// one queue with a D-bounded per-flow delay element starves one — or the
// delay reaches zero and f-efficiency forces the throughput toward the
// (unbounded) link rate, so somewhere along the way the factor-s gap must
// have appeared.
type StrongModelSpec struct {
	// Make builds the CCA under test (nil Convergence semantics as in
	// EmulationSpec; the strong model does not restart state, so only
	// Make(nil) is used).
	Make func(conv *Convergence) cca.Algorithm
	// Rm is the propagation delay.
	Rm time.Duration
	// Lambda is the arbitrary starting rate λ of the proof.
	Lambda units.Rate
	// D is the per-step delay reduction (the two-flow element's bound).
	D time.Duration
	// S is the throughput ratio sought.
	S float64
	// Duration of each emulated trace (default 20 s).
	Duration time.Duration
	// MaxSteps bounds the iteration (default 12).
	MaxSteps int
	// Ctx, when non-nil, cancels the construction's emulations at
	// run-tick granularity.
	Ctx context.Context
}

// StrongModelStep records one trace of the sequence.
type StrongModelStep struct {
	// Index is the step number (0 = the ideal-path run at rate λ).
	Index int
	// MaxDelay is the max RTT of this trace.
	MaxDelay time.Duration
	// Throughput achieved under this delay trajectory.
	Throughput units.Rate
}

// StrongModelResult is the Theorem 3 outcome.
type StrongModelResult struct {
	Steps []StrongModelStep
	// FoundPair reports whether two consecutive traces differ by ≥ S.
	FoundPair bool
	// PairIndex is the first index i with x_{i+1}/x_i ≥ S.
	PairIndex int
	// Ratio is the throughput ratio achieved at the pair.
	Ratio float64
}

// StrongModelConstruction executes the Appendix B procedure. Step 0 runs
// the CCA on an ideal path of rate λ and records its delay trajectory
// d₀(t) with bound D₀ = max d₀. Step k emulates the queueing-delay
// trajectory max(0, d_{k-1}(t) − (Rm+D·k)) + Rm on a link large enough
// that real queueing is negligible, so the adversarial delay element
// produces the delays alone. A delay-bounding CCA must raise its
// throughput as its observed delays drop; by ⌈(D₀−Rm)/D⌉ steps the delay
// floor is reached, so some consecutive pair's throughputs differ by ≥ s.
func StrongModelConstruction(spec StrongModelSpec) *StrongModelResult {
	if spec.Duration <= 0 {
		spec.Duration = 20 * time.Second
	}
	if spec.MaxSteps <= 0 {
		spec.MaxSteps = 12
	}
	if spec.S <= 1 {
		spec.S = 2
	}

	res := &StrongModelResult{}

	// Step 0: ideal path at rate λ.
	conv := MeasureConvergence(func() cca.Algorithm { return spec.Make(nil) },
		spec.Lambda, spec.Rm, MeasureOpts{Duration: spec.Duration, Ctx: spec.Ctx})
	prevTrace := conv.RTT
	prevThpt := throughputOfTrace(conv)
	res.Steps = append(res.Steps, StrongModelStep{
		Index: 0, MaxDelay: conv.DMax, Throughput: prevThpt,
	})

	big := units.Rate(float64(spec.Lambda) * bigLinkMultiplier)
	for k := 1; k <= spec.MaxSteps; k++ {
		// Target delay: previous trajectory lowered by k·D, floored at Rm.
		reduction := time.Duration(k) * spec.D
		target := &trace.Series{Name: fmt.Sprintf("strong_step%d", k)}
		floorHit := true
		for _, p := range prevTrace.Points {
			v := p.V - reduction.Seconds()
			if v < spec.Rm.Seconds() {
				v = spec.Rm.Seconds()
			} else {
				floorHit = false
			}
			target.Add(p.T, v)
		}
		shaper := &RTTShaper{Target: target, D: time.Hour /* strong model: unbounded */}
		n := network.New(
			network.Config{Rate: big, Seed: measureSeed, Ctx: spec.Ctx},
			network.FlowSpec{Name: "strong", Alg: spec.Make(nil), Rm: spec.Rm, FwdJitter: shaper},
		)
		run := n.Run(spec.Duration)
		thpt := run.Flows[0].Stat.SteadyThpt
		_, hi, _ := run.Flows[0].RTT.MinMax(spec.Duration/2, spec.Duration)
		res.Steps = append(res.Steps, StrongModelStep{
			Index:      k,
			MaxDelay:   time.Duration(hi * float64(time.Second)),
			Throughput: thpt,
		})
		if prevThpt > 0 && float64(thpt)/float64(prevThpt) >= spec.S {
			res.FoundPair = true
			res.PairIndex = k - 1
			res.Ratio = float64(thpt) / float64(prevThpt)
			return res
		}
		prevThpt = thpt
		if floorHit {
			break // delay fully flattened: f-efficiency takes over
		}
	}
	return res
}

func throughputOfTrace(conv *Convergence) units.Rate {
	return conv.Throughput
}

// String summarizes the construction.
func (r *StrongModelResult) String() string {
	s := "strong-model (Thm 3) steps:\n"
	for _, st := range r.Steps {
		s += fmt.Sprintf("  step %d: maxDelay=%v thpt=%v\n",
			st.Index, st.MaxDelay.Round(time.Millisecond), st.Throughput)
	}
	if r.FoundPair {
		s += fmt.Sprintf("  pair at step %d: ratio %.2f\n", r.PairIndex, r.Ratio)
	}
	return s
}
