// Package verus implements Verus (Zaki et al., SIGCOMM 2015), the
// delay-profile CCA the paper lists as the *maximum*-filter member of the
// delay-bounding family (§2.1's taxonomy: averages for Vegas/FAST/BBR,
// minimums for LEDBAT/Copa, maximums for Verus).
//
// Verus learns a delay profile — an empirical mapping from congestion
// window to the delay that window produced — and walks a delay target up
// or down each epoch: if the smoothed maximum delay of the last epoch is
// more than r times the minimum observed delay, the target shrinks
// (multiplicatively); otherwise it grows (additively). The next window is
// read off the learned profile at the target delay.
//
// On an ideal path Verus converges to delays near r·Dmin, oscillating as
// the epoch estimator breathes — delay-convergent with δ(C) bounded by the
// profile resolution, and therefore inside Theorem 1's starvation regime
// like the rest of the family.
package verus

import (
	"math/rand"
	"time"

	"starvation/internal/cca"
	"starvation/internal/units"
)

const (
	// r is the delay-ratio threshold (the paper's default): target delays
	// stay near r × Dmin.
	r = 2
	// epochLen is the control epoch (the paper's is 5 ms; 20 ms here, since
	// these RTTs are tens of ms).
	epochLen = 20 * time.Millisecond
	// delta1 is the additive delay-target increase per epoch below the
	// ratio threshold.
	delta1 = time.Millisecond
	// mult is the multiplicative delay-target decrease above it.
	mult = 0.9
	// initialCwndPkts is the initial window.
	initialCwndPkts = 4
)

// profileBuckets is the delay-profile resolution: window values are
// learned per delay bucket of profileQuantum width above the minimum.
const (
	profileBuckets = 512
	profileQuantum = time.Millisecond
)

// sender is a Verus sender; the registry is its only constructor.
type sender struct {
	mss  int
	cwnd float64 // packets

	minRTT cca.MinRTT
	// minRTTHint, when nonzero, pins the minimum-delay estimate.
	minRTTHint time.Duration
	// profile[i] is the EWMA of windows observed while delay was in
	// bucket i (i·quantum above the minimum); profileSet marks live
	// buckets.
	profile    [profileBuckets]float64
	profileSet [profileBuckets]bool

	epochStart  time.Duration
	epochMaxRTT time.Duration
	smoothedMax cca.EWMA

	targetDelay time.Duration
	inSlowStart bool
}

func newSender(mss int) *sender {
	if mss <= 0 {
		mss = 1500
	}
	v := &sender{mss: mss, cwnd: initialCwndPkts, inSlowStart: true}
	v.smoothedMax.Alpha = 0.2
	return v
}

func init() {
	cca.Register("verus", func(mss int, _ *rand.Rand) cca.Algorithm {
		return newSender(mss)
	})
}

// Name implements cca.Algorithm.
func (v *sender) Name() string { return "verus" }

// Window implements cca.Algorithm.
func (v *sender) Window() int { return int(v.cwnd * float64(v.mss)) }

// PacingRate implements cca.Algorithm.
func (v *sender) PacingRate() units.Rate { return 0 }

// minDelay returns the minimum-delay estimate.
func (v *sender) minDelay() time.Duration {
	if v.minRTTHint > 0 {
		return v.minRTTHint
	}
	return v.minRTT.Get(0)
}

func (v *sender) bucket(d time.Duration) int {
	min := v.minDelay()
	if min <= 0 || d < min {
		return 0
	}
	i := int((d - min) / profileQuantum)
	if i >= profileBuckets {
		i = profileBuckets - 1
	}
	return i
}

// learn folds the (window, delay) observation into the profile.
func (v *sender) learn(w float64, d time.Duration) {
	i := v.bucket(d)
	if !v.profileSet[i] {
		v.profile[i] = w
		v.profileSet[i] = true
		return
	}
	v.profile[i] = 0.8*v.profile[i] + 0.2*w
}

// lookup reads the learned window for a delay target, interpolating from
// the nearest live bucket below (the profile is monotone in practice).
func (v *sender) lookup(d time.Duration) (float64, bool) {
	for i := v.bucket(d); i >= 0; i-- {
		if v.profileSet[i] {
			return v.profile[i], true
		}
	}
	return 0, false
}

// OnAck implements cca.Algorithm.
func (v *sender) OnAck(s cca.AckSignal) {
	if s.RTT <= 0 {
		return
	}
	if v.minRTTHint == 0 {
		v.minRTT.Update(s.Now, s.RTT)
	}
	if s.RTT > v.epochMaxRTT {
		v.epochMaxRTT = s.RTT
	}
	v.learn(v.cwnd, s.RTT)
	if v.epochStart == 0 {
		v.epochStart = s.Now
		return
	}
	if s.Now-v.epochStart < epochLen {
		return
	}
	v.endEpoch()
	v.epochStart = s.Now
	v.epochMaxRTT = 0
}

// endEpoch runs the Verus control decision.
func (v *sender) endEpoch() {
	min := v.minDelay()
	if min <= 0 || v.epochMaxRTT <= 0 {
		return
	}
	dMax := time.Duration(v.smoothedMax.Update(float64(v.epochMaxRTT)))

	if v.inSlowStart {
		// Exit on the RAW epoch maximum: the smoothed estimate lags by
		// several epochs, during which an exponential ramp with an
		// RTT-deep feedback pipeline would badly overshoot the queue.
		if float64(v.epochMaxRTT) > r*float64(min) {
			v.inSlowStart = false
			v.targetDelay = dMax
		} else {
			v.cwnd *= 1.25 // exponential ramp per epoch
			return
		}
	}

	if float64(dMax)/float64(min) > r {
		v.targetDelay = time.Duration(float64(v.targetDelay) * mult)
	} else {
		v.targetDelay += delta1
	}
	if v.targetDelay < min {
		v.targetDelay = min
	}
	if w, ok := v.lookup(v.targetDelay); ok && w >= 2 {
		v.cwnd = w
	} else if v.targetDelay > dMax {
		// Target beyond anything observed: probe upward.
		v.cwnd++
	}
	if v.cwnd < 2 {
		v.cwnd = 2
	}
}

// OnLoss implements cca.Algorithm: Verus halves its delay target on loss.
func (v *sender) OnLoss(s cca.LossSignal) {
	if !s.NewEvent {
		return
	}
	v.inSlowStart = false
	v.targetDelay /= 2
	v.cwnd = maxF(v.cwnd/2, 2)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
