package core

import (
	"time"

	"starvation/internal/trace"
)

// RTTShaper is the constructive adversary of Theorem 1 step 3: a bounded
// non-congestive delay element that makes a flow observe a prescribed RTT
// trajectory. For a packet sent at time ts that reaches the element having
// already accumulated (now − ts) of queueing, serialization, and
// propagation delay, the shaper holds it for
//
//	η(t) = target(ts) − (now − ts)
//
// clamped to [0, D]. When the Theorem 1 preconditions hold (D > 2·δmax and
// the two delay ranges collide within ε), the clamp never binds after the
// starting transient, and each flow's observed RTT equals its single-flow
// trajectory — so a deterministic CCA repeats its single-flow behaviour.
type RTTShaper struct {
	// Target is the RTT trajectory to emulate (seconds), extended beyond
	// its last sample as a constant.
	Target *trace.Series
	// D is the element's delay bound.
	D time.Duration

	// Violation statistics: how often, and by how much, the required delay
	// fell outside [0, D] (clamped). A healthy emulation keeps these near
	// zero after the first RTT.
	ClampedLow   int64
	ClampedHigh  int64
	Applied      int64
	MaxShortfall time.Duration // largest (required − D) overflow
	MaxNegative  time.Duration // largest negative requirement magnitude
	// SkipUntil disables shaping before this time (lets a starting
	// transient pass unclamped into the statistics).
	SkipUntil time.Duration
}

// DelayPacket implements jitter.PacketAware.
func (r *RTTShaper) DelayPacket(now, sentAt time.Duration, _ int64) time.Duration {
	// Before the trajectory's first sample, extend it backward as a
	// constant (the forward extension is the step function's own); an
	// arbitrary default would stall the flow's first round trip.
	def := float64(r.D) / float64(time.Second)
	if len(r.Target.Points) > 0 {
		def = r.Target.Points[0].V
	}
	target := time.Duration(r.Target.At(sentAt, def) * float64(time.Second))
	elapsed := now - sentAt
	need := target - elapsed
	r.Applied++
	if need < 0 {
		if now >= r.SkipUntil {
			r.ClampedLow++
			if -need > r.MaxNegative {
				r.MaxNegative = -need
			}
		}
		return 0
	}
	if need > r.D {
		if now >= r.SkipUntil {
			r.ClampedHigh++
			if need-r.D > r.MaxShortfall {
				r.MaxShortfall = need - r.D
			}
		}
		return r.D
	}
	return need
}

// Delay implements jitter.Policy (non-packet-aware fallback: assumes zero
// accumulated delay, which only happens if the shaper is misplaced).
func (r *RTTShaper) Delay(now time.Duration, seq int64) time.Duration {
	return r.DelayPacket(now, now, seq)
}

// Bound implements jitter.Policy.
func (r *RTTShaper) Bound() time.Duration { return r.D }

// violationFraction returns the fraction of shaped packets whose required
// delay fell outside [0, D].
func (r *RTTShaper) violationFraction() float64 {
	if r.Applied == 0 {
		return 0
	}
	return float64(r.ClampedLow+r.ClampedHigh) / float64(r.Applied)
}
