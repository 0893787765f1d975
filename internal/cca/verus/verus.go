// Package verus implements Verus (Zaki et al., SIGCOMM 2015), the
// delay-profile CCA the paper lists as the *maximum*-filter member of the
// delay-bounding family (§2.1's taxonomy: averages for Vegas/FAST/BBR,
// minimums for LEDBAT/Copa, maximums for Verus).
//
// Verus learns a delay profile — an empirical mapping from congestion
// window to the delay that window produced — and walks a delay target up
// or down each epoch: if the smoothed maximum delay of the last epoch is
// more than R times the minimum observed delay, the target shrinks
// (multiplicatively); otherwise it grows (additively). The next window is
// read off the learned profile at the target delay.
//
// On an ideal path Verus converges to delays near R·Dmin, oscillating as
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

// Config parameterizes Verus.
type Config struct {
	MSS int
	// R is the delay-ratio threshold (paper default 2): target delays stay
	// near R × Dmin.
	R float64
	// EpochLen is the control epoch (paper: 5 ms; we default to a larger
	// 20 ms since our RTTs are tens of ms).
	EpochLen time.Duration
	// Delta1 is the additive delay-target increase per epoch when below
	// the ratio threshold (default 1 ms).
	Delta1 time.Duration
	// Mult is the multiplicative delay-target decrease when above the
	// threshold (default 0.9).
	Mult float64
	// InitialCwndPkts is the initial window (default 4).
	InitialCwndPkts float64
	// MinRTTHint pins the minimum-delay estimate when nonzero.
	MinRTTHint time.Duration
}

// profileBuckets is the delay-profile resolution: window values are
// learned per delay bucket of profileQuantum width above the minimum.
const (
	profileBuckets = 512
	profileQuantum = time.Millisecond
)

// Verus is a Verus sender.
type Verus struct {
	cfg  Config
	cwnd float64 // packets

	minRTT cca.MinRTT
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

	Epochs int64
}

// New returns a Verus instance.
func New(cfg Config) *Verus {
	if cfg.MSS <= 0 {
		cfg.MSS = 1500
	}
	if cfg.R <= 1 {
		cfg.R = 2
	}
	if cfg.EpochLen <= 0 {
		cfg.EpochLen = 20 * time.Millisecond
	}
	if cfg.Delta1 <= 0 {
		cfg.Delta1 = time.Millisecond
	}
	if cfg.Mult <= 0 || cfg.Mult >= 1 {
		cfg.Mult = 0.9
	}
	if cfg.InitialCwndPkts <= 0 {
		cfg.InitialCwndPkts = 4
	}
	v := &Verus{cfg: cfg, cwnd: cfg.InitialCwndPkts, inSlowStart: true}
	v.smoothedMax.Alpha = 0.2
	return v
}

func init() {
	cca.Register("verus", func(mss int, _ *rand.Rand) cca.Algorithm {
		return New(Config{MSS: mss})
	})
}

// Name implements cca.Algorithm.
func (v *Verus) Name() string { return "verus" }

// Window implements cca.Algorithm.
func (v *Verus) Window() int { return int(v.cwnd * float64(v.cfg.MSS)) }

// PacingRate implements cca.Algorithm.
func (v *Verus) PacingRate() units.Rate { return 0 }

// minDelay returns the minimum-delay estimate.
func (v *Verus) minDelay() time.Duration {
	if v.cfg.MinRTTHint > 0 {
		return v.cfg.MinRTTHint
	}
	return v.minRTT.Get(0)
}

func (v *Verus) bucket(d time.Duration) int {
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
func (v *Verus) learn(w float64, d time.Duration) {
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
func (v *Verus) lookup(d time.Duration) (float64, bool) {
	for i := v.bucket(d); i >= 0; i-- {
		if v.profileSet[i] {
			return v.profile[i], true
		}
	}
	return 0, false
}

// OnAck implements cca.Algorithm.
func (v *Verus) OnAck(s cca.AckSignal) {
	if s.RTT <= 0 {
		return
	}
	if v.cfg.MinRTTHint == 0 {
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
	if s.Now-v.epochStart < v.cfg.EpochLen {
		return
	}
	v.endEpoch()
	v.epochStart = s.Now
	v.epochMaxRTT = 0
}

// endEpoch runs the Verus control decision.
func (v *Verus) endEpoch() {
	v.Epochs++
	min := v.minDelay()
	if min <= 0 || v.epochMaxRTT <= 0 {
		return
	}
	dMax := time.Duration(v.smoothedMax.Update(float64(v.epochMaxRTT)))

	if v.inSlowStart {
		// Exit on the RAW epoch maximum: the smoothed estimate lags by
		// several epochs, during which an exponential ramp with an
		// RTT-deep feedback pipeline would badly overshoot the queue.
		if float64(v.epochMaxRTT) > v.cfg.R*float64(min) {
			v.inSlowStart = false
			v.targetDelay = dMax
		} else {
			v.cwnd *= 1.25 // exponential ramp per epoch
			return
		}
	}

	if float64(dMax)/float64(min) > v.cfg.R {
		v.targetDelay = time.Duration(float64(v.targetDelay) * v.cfg.Mult)
	} else {
		v.targetDelay += v.cfg.Delta1
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
func (v *Verus) OnLoss(s cca.LossSignal) {
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
