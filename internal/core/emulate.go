package core

import (
	"fmt"
	"time"

	"starvation/internal/cca"
	"starvation/internal/network"
	"starvation/internal/trace"
	"starvation/internal/units"
)

// EmulationSpec configures the Theorem 1 two-flow construction.
type EmulationSpec struct {
	// CCA is the registered name of the CCA under test. The step-2 probe
	// runs each build a fresh instance; step 3 builds two more and
	// restarts each from its probe's converged state through the CCA's
	// Restart method, so the CCA must have one (vegas, fast, ledbat).
	CCA string
	// Rm is the shared propagation RTT.
	Rm time.Duration
	// C1 and C2 are the two single-flow link rates (from PigeonholeSearch
	// or chosen directly); the two-flow link runs at C1 + C2.
	C1, C2 units.Rate
	// D is the non-congestive delay bound; Theorem 1 requires D > 2·δmax.
	D time.Duration
	// constantTargets selects the emulation flavor. False (default)
	// replays each flow's recorded RTT trajectory — the literal step-3
	// construction. True instead holds each flow at the constant center of
	// its recorded equilibrium band, a "persistent non-congestive delay"
	// adversary that is also admissible in the §3 model and, unlike the
	// replay, phase-locks perfectly in a packet-granular emulator (the
	// equilibrium hysteresis of the CCA freezes the operating point).
	constantTargets bool
	// build, when non-nil, replaces the registry's constructor of CCA.
	// It is the seam of X-T1-gen's LEDBAT run, which needs a 5 ms target:
	// at the registry's 25 ms the construction of
	// TestTheorem1LEDBATStarvation fails its preconditions (gap 25.9 ms
	// against δmax 31 µs; ratio 9.5).
	build func() cca.Algorithm
	// Measure tunes the step-2 single-flow runs and the two-flow
	// emulation, which runs as long as each of them.
	Measure MeasureOpts
}

// EmulationResult reports the constructed starvation scenario.
type EmulationResult struct {
	Conv1, Conv2 *Convergence
	// DeltaMax is max(δ(C1), δ(C2)), the relevant δmax of the pair.
	DeltaMax time.Duration
	// Epsilon is D/2 − δmax (must be positive for the construction).
	Epsilon time.Duration
	// DelayGap is |dmax(C1) − dmax(C2)|; the construction needs the two
	// ranges within δmax + ε of each other.
	DelayGap time.Duration
	// PreconditionsHold reports whether D > 2·δmax and the delay ranges
	// collide, i.e. Theorem 1's hypotheses are satisfied.
	PreconditionsHold bool
	// DStar0 is the initial combined-queue delay d*(0) (≥ Rm).
	DStar0 time.Duration
	// TwoFlow is the emulated two-flow run.
	TwoFlow *network.Result
	// Ratio is the achieved steady-state throughput ratio.
	Ratio float64
	// Shaper1 and Shaper2 expose the per-flow adversary statistics.
	Shaper1, Shaper2 *RTTShaper
	// Target1 and Target2 are the emulated RTT trajectories d̄i(t).
	Target1, Target2 *trace.Series
}

// EmulateTwoFlow executes all three steps of the Theorem 1 proof as an
// experiment: measure single-flow trajectories on C1 and C2 (step 2),
// verify the delay ranges collide (step 1's conclusion), then run both
// flows on a C1+C2 link with per-flow bounded delay shapers replaying the
// trajectories (step 3) and report the resulting throughput ratio.
func EmulateTwoFlow(spec EmulationSpec) *EmulationResult {
	mk := spec.build
	if mk == nil {
		mk = newCCA(spec.CCA)
	}
	probe := mk()
	if _, ok := probe.(restarter); !ok {
		panic(fmt.Sprintf("core: CCA %q has no Restart method; Theorem 1 restarts its flows from their converged states", spec.CCA))
	}
	// restart builds a flow resumed from the converged state conv.
	restart := func(conv *Convergence) cca.Algorithm {
		alg := mk()
		alg.(restarter).Restart(conv.Rm, conv.FinalCwndPkts)
		return alg
	}
	spec.Measure.fill()

	// Step 2: single-flow trajectories on ideal paths of rates C1 and C2.
	conv1 := measure(probe, spec.C1, spec.Rm, spec.Measure)
	conv2 := measure(mk(), spec.C2, spec.Rm, spec.Measure)

	res := &EmulationResult{Conv1: conv1, Conv2: conv2}
	res.DeltaMax = conv1.Delta
	if conv2.Delta > res.DeltaMax {
		res.DeltaMax = conv2.Delta
	}
	res.Epsilon = spec.D/2 - res.DeltaMax
	res.DelayGap = conv1.DMax - conv2.DMax
	if res.DelayGap < 0 {
		res.DelayGap = -res.DelayGap
	}
	res.PreconditionsHold = res.Epsilon > 0 && res.DelayGap <= res.DeltaMax+res.Epsilon

	if spec.constantTargets {
		res.Target1 = constantSeries(conv1.SteadyMeanRTT)
		res.Target2 = constantSeries(conv2.SteadyMeanRTT)
	} else {
		// Time-shift the trajectories so t=0 is the convergence time: the
		// d̄i(t) = di(t + Ti) of the proof.
		res.Target1 = conv1.RTT.Shift(conv1.ConvergedAt)
		res.Target2 = conv2.RTT.Shift(conv2.ConvergedAt)
	}
	res.Target1.Name = "target1_rtt_s"
	res.Target2.Name = "target2_rtt_s"

	// Step 3: initial queue so that d*(0) is the weighted average of the
	// two starting delays minus (δmax + ε).
	d1of0 := time.Duration(res.Target1.At(0, conv1.DMax.Seconds()) * float64(time.Second))
	d2of0 := time.Duration(res.Target2.At(0, conv2.DMax.Seconds()) * float64(time.Second))
	w1 := float64(spec.C1) / float64(spec.C1+spec.C2)
	w2 := float64(spec.C2) / float64(spec.C1+spec.C2)
	dStar0 := time.Duration(w1*float64(d1of0)+w2*float64(d2of0)) - (res.DeltaMax + res.Epsilon)
	if dStar0 < spec.Rm {
		dStar0 = spec.Rm // case 2 of the proof: no queue priming needed
	}
	res.DStar0 = dStar0

	// Ignore the first second in the violation statistics: restarting the
	// flows with their converged windows causes one queue spike while the
	// pipes refill (the proof sets the in-flight state directly; a packet
	// emulator has to earn it).
	skip := 20 * spec.Rm
	if skip < time.Second {
		skip = time.Second
	}
	res.Shaper1 = &RTTShaper{Target: res.Target1, D: spec.D, SkipUntil: skip}
	res.Shaper2 = &RTTShaper{Target: res.Target2, D: spec.D, SkipUntil: skip}

	n := network.New(
		network.Config{Rate: spec.C1 + spec.C2, Seed: emulationSeed, Ctx: spec.Measure.Ctx},
		network.FlowSpec{Name: "starved", Alg: restart(conv1), Rm: spec.Rm, FwdJitter: res.Shaper1},
		network.FlowSpec{Name: "fast", Alg: restart(conv2), Rm: spec.Rm, FwdJitter: res.Shaper2},
	)
	n.Link.Prime(dStar0 - spec.Rm)
	res.TwoFlow = n.Run(spec.Measure.Duration)
	res.Ratio = res.TwoFlow.Ratio()
	return res
}

// restarter is a CCA the Theorem 1 construction can resume from a
// converged state: the proof initializes "the internal state of the two
// flows to the states of the corresponding flow in Step 2", here the
// window and an oracular Rm (the paper notes the argument works even with
// oracular knowledge of Rm).
type restarter interface {
	Restart(rm time.Duration, cwndPkts float64)
}

// constantSeries returns a one-sample series whose step-function extension
// is the constant v.
func constantSeries(v time.Duration) *trace.Series {
	s := &trace.Series{}
	s.Add(0, v.Seconds())
	return s
}

// String summarizes the construction.
func (r *EmulationResult) String() string {
	return fmt.Sprintf(
		"theorem-1 emulation: C1=%v C2=%v  δmax=%v ε=%v gap=%v preconditions=%v\n"+
			"  d*(0)=%v  ratio=%.1f  clamp violations: flow1 %.4f%% flow2 %.4f%%\n%s",
		r.Conv1.C, r.Conv2.C,
		r.DeltaMax.Round(time.Microsecond), r.Epsilon.Round(time.Microsecond),
		r.DelayGap.Round(time.Microsecond), r.PreconditionsHold,
		r.DStar0.Round(time.Microsecond), r.Ratio,
		100*r.Shaper1.violationFraction(), 100*r.Shaper2.violationFraction(),
		r.TwoFlow)
}

// UnderutilizationSpec configures the Theorem 2 construction.
type UnderutilizationSpec struct {
	// CCA is the registered name of the CCA under test; the probe and the
	// emulated run each build a fresh instance.
	CCA string
	// Rm is the propagation RTT.
	Rm time.Duration
	// C is the ideal-path rate whose trajectory is emulated.
	C units.Rate
	// Measure tunes the probe run and the emulated run, which runs as
	// long.
	Measure MeasureOpts
}

// bigLinkMultiplier is the emulation link's rate over the emulated one in
// the Theorem 2 and 3 constructions: large enough that the link's own
// queueing is negligible, so the delay element alone shapes the RTT.
const bigLinkMultiplier = 50

// UnderutilizationResult reports the Theorem 2 outcome.
type UnderutilizationResult struct {
	Conv *Convergence
	// D is the jitter bound the construction needed: dmax(C) − Rm plus the
	// queueing the big link still causes (≈ 0).
	D time.Duration
	// BigLink is C′.
	BigLink units.Rate
	// Run is the emulated single-flow run on C′.
	Run *network.Result
	// Utilization achieved on C′ (→ C/C′, arbitrarily small).
	Utilization float64
	Shaper      *RTTShaper
}

// UnderutilizationConstruction runs Theorem 2: a CCA whose dmax(C) ≤ D can
// be held to throughput ≈ C on a link of rate bigLinkMultiplier × C by
// emulating its ideal-path delay trajectory entirely with non-congestive
// delay.
func UnderutilizationConstruction(spec UnderutilizationSpec) *UnderutilizationResult {
	mk := newCCA(spec.CCA)
	spec.Measure.fill()

	conv := measure(mk(), spec.C, spec.Rm, spec.Measure)
	target := conv.RTT // emulate from t=0: same initial state, same trace
	target.Name = "target_rtt_s"
	d := conv.DMax - spec.Rm
	if d <= 0 {
		d = time.Millisecond
	}
	// Headroom for the big link's own (tiny) queueing delay.
	d += 2 * time.Millisecond

	shaper := &RTTShaper{Target: target, D: d}
	big := units.Rate(float64(spec.C) * bigLinkMultiplier)
	n := network.New(
		network.Config{Rate: big, Seed: emulationSeed, Ctx: spec.Measure.Ctx},
		network.FlowSpec{Name: "emulated", Alg: mk(), Rm: spec.Rm, FwdJitter: shaper},
	)
	res := n.Run(spec.Measure.Duration)
	return &UnderutilizationResult{
		Conv:        conv,
		D:           d,
		BigLink:     big,
		Run:         res,
		Utilization: res.Utilization(),
		Shaper:      shaper,
	}
}
