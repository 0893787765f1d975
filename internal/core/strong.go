package core

import (
	"fmt"
	"time"

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
	// CCA is the registered name of the CCA under test; every trace
	// builds a fresh instance (the strong model restarts no state).
	CCA string
	// Rm is the propagation delay.
	Rm time.Duration
	// Lambda is the arbitrary starting rate λ of the proof.
	Lambda units.Rate
	// D is the per-step delay reduction (the two-flow element's bound).
	D time.Duration
	// S is the throughput ratio sought.
	S float64
	// Measure tunes every trace; its Duration defaults to 20 s here.
	Measure MeasureOpts
	// maxSteps bounds the iteration (default 12); tests lower it.
	maxSteps int
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
	mk := newCCA(spec.CCA)
	if spec.Measure.Duration <= 0 {
		spec.Measure.Duration = 20 * time.Second
	}
	if spec.maxSteps <= 0 {
		spec.maxSteps = 12
	}
	if spec.S <= 1 {
		spec.S = 2
	}

	res := &StrongModelResult{}

	// Step 0: ideal path at rate λ.
	conv := measure(mk(), spec.Lambda, spec.Rm, spec.Measure)
	prevTrace := conv.RTT
	prevThpt := conv.Throughput
	res.Steps = append(res.Steps, StrongModelStep{
		Index: 0, MaxDelay: conv.DMax, Throughput: prevThpt,
	})

	big := units.Rate(float64(spec.Lambda) * bigLinkMultiplier)
	for k := 1; k <= spec.maxSteps; k++ {
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
			network.Config{Rate: big, Seed: measureSeed, Ctx: spec.Measure.Ctx},
			network.FlowSpec{Name: "strong", Alg: mk(), Rm: spec.Rm, FwdJitter: shaper},
		)
		run := n.Run(spec.Measure.Duration)
		thpt := run.Flows[0].Stat.SteadyThpt
		_, hi, _ := run.Flows[0].RTT.MinMax(spec.Measure.Duration/2, spec.Measure.Duration)
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
