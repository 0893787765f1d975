// Package vegas implements TCP Vegas (Brakmo & Peterson, 1994), the
// original delay-bounding CCA. Vegas tries to keep between Alpha and Beta
// packets queued at the bottleneck, so on an ideal path it converges to an
// RTT of Rm + α/C with δ(C) ≈ 0 — the flattest possible rate-delay curve
// and, per the paper's Theorem 1, the most starvation-prone design.
package vegas

import (
	"math/rand"
	"time"

	"starvation/internal/cca"
	"starvation/internal/units"
)

// DefaultAlpha and DefaultBeta are Config.Alpha and Config.Beta's
// defaults: the flow holds 3–5 packets, ~4, in the queue, the running
// example of the paper's §4.1.
const DefaultAlpha, DefaultBeta = 3, 5

// Config parameterizes Vegas.
type Config struct {
	MSS int
	// Alpha and Beta bound the target number of queued packets
	// (defaults DefaultAlpha and DefaultBeta).
	Alpha, Beta float64
	// Gamma is the slow-start exit threshold in queued packets (default 1).
	Gamma float64
	// InitialCwndPkts is the initial window (default 4).
	InitialCwndPkts float64
	// BaseRTT optionally pins the minimum-RTT estimate (used by theory
	// experiments that grant the CCA oracular knowledge of Rm).
	BaseRTT time.Duration
}

// Vegas is a Vegas sender.
type Vegas struct {
	cfg  Config
	cwnd float64 // packets
	base cca.MinRTT

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
	if cfg.Alpha <= 0 {
		cfg.Alpha = DefaultAlpha
	}
	if cfg.Beta <= 0 {
		cfg.Beta = DefaultBeta
	}
	if cfg.Gamma <= 0 {
		cfg.Gamma = 1
	}
	if cfg.InitialCwndPkts <= 0 {
		cfg.InitialCwndPkts = 4
	}
	return &Vegas{cfg: cfg, cwnd: cfg.InitialCwndPkts, inSlowStart: true}
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

// SetCwndPkts overrides the window; the Theorem 1 construction uses this to
// start a flow from its converged state.
func (v *Vegas) SetCwndPkts(w float64) {
	v.cwnd = w
	v.inSlowStart = false
}

// baseRTT returns the current minimum-RTT estimate.
func (v *Vegas) baseRTT() time.Duration {
	return v.base.Get(v.cfg.BaseRTT)
}

// OnAck implements cca.Algorithm.
func (v *Vegas) OnAck(s cca.AckSignal) {
	if s.RTT <= 0 {
		return
	}
	if v.cfg.BaseRTT == 0 {
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
		if diff > v.cfg.Gamma {
			v.inSlowStart = false
			// Deflate the slow-start overshoot: scale the window to the
			// bandwidth actually observed (w·base/RTT ≈ rate·base) plus
			// the target backlog, so AIAD starts near the fixed point
			// instead of draining a doubling overshoot at 1 pkt/RTT.
			v.cwnd = v.cwnd*float64(base)/float64(rtt) + v.cfg.Alpha
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
	case diff < v.cfg.Alpha:
		v.cwnd++
	case diff > 2*v.cfg.Beta:
		// Gross overload (e.g. residual slow-start overshoot): draining
		// one packet per RTT would take thousands of RTTs, so snap to the
		// measured bandwidth-delay product plus the target backlog. Near
		// the fixed point (diff ≤ 2β) the classic AIAD applies, so the
		// equilibrium band and oscillation are unchanged.
		w := v.cwnd*float64(base)/float64(rtt) + v.cfg.Alpha
		if w < 2 {
			w = 2
		}
		v.cwnd = w
	case diff > v.cfg.Beta:
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
