// Package ccac is this repository's stand-in for the paper's Appendix C
// extension of the CCAC verifier to multiple flows. CCAC encodes network
// behaviour as SMT constraints and asks a solver for a counterexample
// trace; offline and stdlib-only, we instead exhaustively search a coarse
// discrete relaxation of the same two-flow model over all adversary
// strategies up to a bounded trace length.
//
// The model matches §5.4's setting: two AIMD flows share a drop-tail FIFO
// with a 1-BDP buffer. Time advances in RTT-sized steps; each flow
// transmits its window per step and grows by one packet per RTT unless it
// lost a packet, in which case it halves. The adversary's power is the
// model's knob:
//
//   - OverflowChoice: when the buffer overflows, the adversary picks which
//     flow's packets are at the tail (burstiness, delayed ACKs — the Fig. 7
//     mechanism). The paper's claim, verified by CCAC for 10-RTT traces,
//     is that this unfairness is bounded: AIMD does not starve.
//   - InjectLoss: the adversary may additionally hand one flow a
//     non-congestive loss each step (§5.4's random-loss element). Here
//     starvation is achievable, and the search finds the witness trace.
package ccac

import (
	"fmt"
	"strings"
)

// Params configures the bounded search.
type Params struct {
	// CPkts is the link capacity in packets per RTT step.
	CPkts int
	// BufferPkts is the drop-tail queue bound (1 BDP = CPkts).
	BufferPkts int
	// Depth is the trace length in RTT steps (CCAC used 10).
	Depth int
	// InjectLoss grants the adversary per-step non-congestive loss
	// against flow 1.
	InjectLoss bool
}

// State is one configuration of the discrete two-flow system.
type State struct {
	W1, W2 int // congestion windows in packets
	Q      int // queue occupancy in packets
}

// Step records one transition of the worst-case trace.
type Step struct {
	State
	// Victim reports the adversary's choice: 0 none, 1 flow1, 2 flow2,
	// 3 both (overflow split).
	Victim int
	// Injected marks a non-congestive loss given to flow 1.
	Injected bool
	// Got1 and Got2 are the packets delivered this step.
	Got1, Got2 int
}

// Result is the outcome of a bounded search.
type Result struct {
	// MaxRatio is the worst cumulative throughput ratio (flow2 over
	// flow1) over every adversary strategy and initial state explored.
	MaxRatio float64
	// WorstTrace is a witness achieving MaxRatio.
	WorstTrace []Step
	// WorstStart is the initial state of the witness.
	WorstStart State
	// StatesExplored counts visited search nodes.
	StatesExplored int
}

// initialStates returns a representative set of starting conditions,
// including the adversarial one where flow 2 owns the whole pipe.
func initialStates(cPkts, buffer int) []State {
	return []State{
		{W1: 1, W2: 1, Q: 0},                  // both starting
		{W1: cPkts / 2, W2: cPkts / 2, Q: 0},  // converged fair share
		{W1: 1, W2: cPkts + buffer - 1, Q: 0}, // late joiner vs hog
		{W1: 1, W2: cPkts, Q: buffer / 2},     // hog with standing queue
		{W1: cPkts / 4, W2: 3 * cPkts / 4, Q: 0},
	}
}

// Search exhaustively explores every adversary strategy from every initial
// state up to Depth steps and returns the worst cumulative throughput
// ratio. Branching occurs only where the adversary has a choice, so the
// tree stays small even at useful depths.
func Search(p Params) *Result {
	if p.CPkts <= 0 {
		p.CPkts = 20
	}
	if p.BufferPkts <= 0 {
		p.BufferPkts = p.CPkts // 1 BDP
	}
	if p.Depth <= 0 {
		p.Depth = 10
	}
	res := &Result{}
	for _, st := range initialStates(p.CPkts, p.BufferPkts) {
		trace := make([]Step, 0, p.Depth)
		explore(p, st, 0, 0, 0, trace, res)
	}
	return res
}

// explore runs the DFS. cum1/cum2 accumulate delivered packets.
func explore(p Params, st State, depth, cum1, cum2 int, trace []Step, res *Result) {
	res.StatesExplored++
	if depth == p.Depth {
		ratio := cumulativeRatio(cum1, cum2, p)
		if ratio > res.MaxRatio {
			res.MaxRatio = ratio
			res.WorstTrace = append([]Step(nil), trace...)
			if len(trace) == p.Depth && p.Depth > 0 {
				res.WorstStart = trace[0].State
			}
		}
		return
	}

	injections := []bool{false}
	if p.InjectLoss {
		injections = []bool{false, true}
	}
	for _, inject := range injections {
		arrivals := st.W1 + st.W2
		served := min(arrivals+st.Q, p.CPkts)
		// Per-flow delivery: FIFO shares service in proportion to queue
		// composition; the coarse relaxation uses window proportion, which
		// over-approximates the adversary's options (any finer split is a
		// special case the SACK... the relaxation keeps the model sound).
		got1, got2 := split(served, st.W1, st.W2)
		overflow := arrivals + st.Q - served - p.BufferPkts
		if overflow > 0 {
			// The adversary chooses whose packets overflow, but cannot
			// blame a flow for more drops than it sent: when the excess
			// exceeds one flow's whole arrival, the other must lose too.
			// This is the physical constraint behind the paper's §5.4
			// boundedness argument — the hog cannot outsource all of its
			// own overflow.
			for victim := 1; victim <= 3; victim++ {
				if victim == 1 && overflow > st.W1 {
					continue
				}
				if victim == 2 && overflow > st.W2 {
					continue
				}
				next := applyAIMD(st, victim, inject, served, p)
				trace = append(trace, Step{State: st, Victim: victim,
					Injected: inject, Got1: got1, Got2: got2})
				explore(p, next, depth+1, cum1+got1, cum2+got2, trace, res)
				trace = trace[:len(trace)-1]
			}
			continue
		}
		next := applyAIMD(st, 0, inject, served, p)
		trace = append(trace, Step{State: st, Victim: 0,
			Injected: inject, Got1: got1, Got2: got2})
		explore(p, next, depth+1, cum1+got1, cum2+got2, trace, res)
		trace = trace[:len(trace)-1]
	}
}

// applyAIMD advances the windows and queue one RTT step.
func applyAIMD(st State, victim int, inject bool, served int, p Params) State {
	lose1 := victim == 1 || victim == 3 || inject
	lose2 := victim == 2 || victim == 3
	next := State{}
	if lose1 {
		next.W1 = max(st.W1/2, 1)
	} else {
		next.W1 = st.W1 + 1
	}
	if lose2 {
		next.W2 = max(st.W2/2, 1)
	} else {
		next.W2 = st.W2 + 1
	}
	q := st.Q + st.W1 + st.W2 - served
	if q < 0 {
		q = 0
	}
	if q > p.BufferPkts {
		q = p.BufferPkts
	}
	next.Q = q
	return next
}

// split divides served packets in proportion w1:w2, rounding to nearest so
// a one-packet window still gets its packet served — a FIFO queue delivers
// every enqueued packet, and truncating a fractional share to zero would
// fabricate starvation the continuous model does not contain.
func split(served, w1, w2 int) (int, int) {
	total := w1 + w2
	if total == 0 {
		return 0, 0
	}
	got1 := (served*w1 + total/2) / total
	if got1 > served {
		got1 = served
	}
	return got1, served - got1
}

func cumulativeRatio(cum1, cum2 int, p Params) float64 {
	hi, lo := cum2, cum1
	if cum1 > cum2 {
		hi, lo = cum1, cum2
	}
	if lo == 0 {
		// Zero delivery over the whole trace: treat as one packet to keep
		// ratios finite and comparable across depths (the starved flow's
		// AIMD floor of w=1 always delivers eventually).
		lo = 1
	}
	return float64(hi) / float64(lo)
}

// String renders the worst trace for inspection.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "explored %d nodes, worst ratio %.2f from %+v\n",
		r.StatesExplored, r.MaxRatio, r.WorstStart)
	for i, s := range r.WorstTrace {
		fmt.Fprintf(&b, "  t=%2d w1=%3d w2=%3d q=%3d victim=%d inject=%v got=(%d,%d)\n",
			i, s.W1, s.W2, s.Q, s.Victim, s.Injected, s.Got1, s.Got2)
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
