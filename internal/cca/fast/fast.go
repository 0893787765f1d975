// Package fast implements FAST TCP (Wei, Jin, Low & Hegde, 2006). FAST
// shares Vegas's equilibrium — DefaultAlpha packets queued per flow, RTT of
// Rm + α/C — but reaches it with a multiplicative window update each RTT,
// so it converges quickly even on large-BDP paths. On an ideal path
// δ(C) → 0, making it exactly as starvation-prone as Vegas (Fig. 3).
package fast

import (
	"math/rand"
	"time"

	"starvation/internal/cca"
	"starvation/internal/units"
)

// DefaultAlpha is the target number of queued packets.
const DefaultAlpha = 4

const (
	// gamma in (0, 1] is the update smoothing factor.
	gamma = 0.5
	// initialCwndPkts is the initial window.
	initialCwndPkts = 4
)

// sender is a FAST TCP sender; the registry is its only constructor.
type sender struct {
	mss  int
	cwnd float64 // packets
	base cca.MinRTT
	// rm, when nonzero, pins the minimum-RTT estimate (see Restart).
	rm time.Duration

	epochStart  time.Duration
	epochMinRTT time.Duration
}

func newSender(mss int) *sender {
	if mss <= 0 {
		mss = 1500
	}
	return &sender{mss: mss, cwnd: initialCwndPkts}
}

func init() {
	cca.Register("fast", func(mss int, _ *rand.Rand) cca.Algorithm {
		return newSender(mss)
	})
}

// Name implements cca.Algorithm.
func (f *sender) Name() string { return "fast" }

// Window implements cca.Algorithm.
func (f *sender) Window() int { return int(f.cwnd * float64(f.mss)) }

// PacingRate implements cca.Algorithm.
func (f *sender) PacingRate() units.Rate { return 0 }

// Restart resumes the flow from a converged state for the Theorem 1
// construction: a window of cwndPkts and the minimum-RTT estimate pinned
// at rm.
func (f *sender) Restart(rm time.Duration, cwndPkts float64) {
	f.rm = rm
	f.cwnd = cwndPkts
}

// OnAck implements cca.Algorithm.
func (f *sender) OnAck(s cca.AckSignal) {
	if s.RTT <= 0 {
		return
	}
	if f.rm == 0 {
		f.base.Update(s.Now, s.RTT)
	}
	if f.epochMinRTT == 0 || s.RTT < f.epochMinRTT {
		f.epochMinRTT = s.RTT
	}
	if f.epochStart == 0 {
		f.epochStart = s.Now
		return
	}
	if s.Now-f.epochStart < s.RTT {
		return
	}
	rtt := f.epochMinRTT
	f.epochStart = s.Now
	f.epochMinRTT = 0

	base := f.base.Get(f.rm)
	if base <= 0 || rtt <= 0 {
		return
	}
	// w <- min(2w, (1-γ)w + γ(base/RTT * w + α))
	target := (1-gamma)*f.cwnd +
		gamma*(float64(base)/float64(rtt)*f.cwnd+DefaultAlpha)
	if target > 2*f.cwnd {
		target = 2 * f.cwnd
	}
	if target < 2 {
		target = 2
	}
	f.cwnd = target
}

// OnLoss implements cca.Algorithm.
func (f *sender) OnLoss(s cca.LossSignal) {
	if !s.NewEvent {
		return
	}
	f.cwnd = maxF(f.cwnd/2, 2)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
