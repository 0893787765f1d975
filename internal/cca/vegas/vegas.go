// Package vegas implements TCP Vegas (Brakmo & Peterson, 1994), the
// original delay-bounding CCA. Vegas tries to keep between DefaultAlpha and
// DefaultBeta packets queued at the bottleneck, so on an ideal path it converges to an
// RTT of Rm + α/C with δ(C) ≈ 0 — the flattest possible rate-delay curve
// and, per the paper's Theorem 1, the most starvation-prone design.
package vegas

import (
	"math/rand"
	"time"

	"starvation/internal/cca"
	"starvation/internal/units"
)

// DefaultAlpha and DefaultBeta bound the target number of queued
// packets: the flow holds 3–5 packets, ~4, in the queue, the running
// example of the paper's §4.1.
const DefaultAlpha, DefaultBeta = 3, 5

const (
	// gamma is the slow-start exit threshold in queued packets.
	gamma = 1
	// initialCwndPkts is the initial window.
	initialCwndPkts = 4
)

// Config parameterizes Vegas.
type Config struct {
	MSS int
}

// Vegas is a Vegas sender.
type Vegas struct {
	cfg  Config
	cwnd float64 // packets
	base cca.MinRTT
	// rm, when nonzero, pins the minimum-RTT estimate (see Restart).
	rm time.Duration

	inSlowStart bool
	epochStart  time.Duration
	epochMinRTT time.Duration
	ssGrow      bool // slow start doubles every other RTT
}

// New returns a Vegas instance.
func New(cfg Config) *Vegas {
	if cfg.MSS <= 0 {
		cfg.MSS = 1500
	}
	return &Vegas{cfg: cfg, cwnd: initialCwndPkts, inSlowStart: true}
}

func init() {
	cca.Register("vegas", func(mss int, _ *rand.Rand) cca.Algorithm {
		return New(Config{MSS: mss})
	})
}

// Name implements cca.Algorithm.
func (v *Vegas) Name() string { return "vegas" }

// Window implements cca.Algorithm.
func (v *Vegas) Window() int { return int(v.cwnd * float64(v.cfg.MSS)) }

// PacingRate implements cca.Algorithm.
func (v *Vegas) PacingRate() units.Rate { return 0 }

// Restart resumes the flow from a converged state: a window of cwndPkts
// outside slow start, and the minimum-RTT estimate pinned at rm. The
// Theorem 1 construction restarts each flow this way: the proof
// initializes "the internal state of the two flows to the states of the
// corresponding flow in Step 2", and the paper notes the argument works
// even with oracular knowledge of Rm.
func (v *Vegas) Restart(rm time.Duration, cwndPkts float64) {
	v.rm = rm
	v.cwnd = cwndPkts
	v.inSlowStart = false
}

// baseRTT returns the current minimum-RTT estimate.
func (v *Vegas) baseRTT() time.Duration {
	return v.base.Get(v.rm)
}

// OnAck implements cca.Algorithm.
func (v *Vegas) OnAck(s cca.AckSignal) {
	if s.RTT <= 0 {
		return
	}
	if v.rm == 0 {
		v.base.Update(s.Now, s.RTT)
	}
	if v.epochMinRTT == 0 || s.RTT < v.epochMinRTT {
		v.epochMinRTT = s.RTT
	}
	if v.epochStart == 0 {
		v.epochStart = s.Now
		return
	}
	// One evaluation per RTT, using the best sample of the epoch.
	if s.Now-v.epochStart < s.RTT {
		return
	}
	rtt := v.epochMinRTT
	v.epochStart = s.Now
	v.epochMinRTT = 0

	base := v.baseRTT()
	if base <= 0 || rtt <= 0 {
		return
	}
	// diff = packets occupying the queue at the current window.
	diff := v.cwnd * float64(rtt-base) / float64(rtt)

	if v.inSlowStart {
		if diff > gamma {
			v.inSlowStart = false
			// Deflate the slow-start overshoot: scale the window to the
			// bandwidth actually observed (w·base/RTT ≈ rate·base) plus
			// the target backlog, so AIAD starts near the fixed point
			// instead of draining a doubling overshoot at 1 pkt/RTT.
			v.cwnd = v.cwnd*float64(base)/float64(rtt) + DefaultAlpha
			return
		}
		// Double every other RTT.
		if v.ssGrow {
			v.cwnd *= 2
		}
		v.ssGrow = !v.ssGrow
		return
	}
	switch {
	case diff < DefaultAlpha:
		v.cwnd++
	case diff > 2*DefaultBeta:
		// Gross overload (e.g. residual slow-start overshoot): draining
		// one packet per RTT would take thousands of RTTs, so snap to the
		// measured bandwidth-delay product plus the target backlog. Near
		// the fixed point (diff ≤ 2β) the classic AIAD applies, so the
		// equilibrium band and oscillation are unchanged.
		w := v.cwnd*float64(base)/float64(rtt) + DefaultAlpha
		if w < 2 {
			w = 2
		}
		v.cwnd = w
	case diff > DefaultBeta:
		if v.cwnd > 2 {
			v.cwnd--
		}
	}
}

// OnLoss implements cca.Algorithm.
func (v *Vegas) OnLoss(s cca.LossSignal) {
	if !s.NewEvent {
		return
	}
	v.inSlowStart = false
	if s.Timeout {
		v.cwnd = 2
		return
	}
	v.cwnd = maxF(v.cwnd/2, 2)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
