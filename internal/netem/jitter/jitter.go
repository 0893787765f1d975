// Package jitter implements the non-congestive delay element of the paper's
// network model (§3): a per-flow component that may hold packets or ACKs for
// any duration in [0, D] without reordering them.
//
// The paper's model is non-deterministic, not random: the element may choose
// any bounded delay pattern, including adversarial ones. Each named
// real-world jitter source (ACK aggregation, token bucket filters, OS
// scheduling noise, ...) is exposed here as a concrete Policy so scenarios
// can state exactly which mechanism produces their delays.
package jitter

import (
	"math/rand"
	"time"
)

// Policy chooses the non-congestive delay added to each packet of one flow.
// Implementations must keep every returned delay within [0, Bound()].
// Policies are stateful and must not be shared between flows or directions.
type Policy interface {
	// Delay returns the extra hold time for a packet passing the element at
	// virtual time now. seq is the packet's sequence number (policies that
	// target specific packets may use it; most ignore it).
	Delay(now time.Duration, seq int64) time.Duration
	// Bound returns D, the upper bound on delays this policy produces.
	Bound() time.Duration
}

// PacketAware is an optional extension for policies that need the packet's
// send timestamp — e.g. a shaper that emulates a target RTT trajectory must
// know how much delay the packet has already accumulated. Elements check
// for this interface and prefer DelayPacket when present.
type PacketAware interface {
	Policy
	// DelayPacket returns the hold time for a packet sent at sentAt that
	// reaches the element at now.
	DelayPacket(now, sentAt time.Duration, seq int64) time.Duration
}

// None adds no delay. Its bound is zero: an ideal path.
type None struct{}

// Delay implements Policy.
func (None) Delay(time.Duration, int64) time.Duration { return 0 }

// Bound implements Policy.
func (None) Bound() time.Duration { return 0 }

// Constant delays every packet by the same amount. A constant positive
// non-congestive delay is indistinguishable from extra propagation delay
// except to a sender that has already locked in a smaller RTT minimum.
type Constant struct{ D time.Duration }

// Delay implements Policy.
func (c Constant) Delay(time.Duration, int64) time.Duration { return c.D }

// Bound implements Policy.
func (c Constant) Bound() time.Duration { return c.D }

// Uniform draws an independent delay uniformly from [0, Max] per packet.
// This models aggregate end-host scheduling noise. Note the mean is
// positive, as the paper observes real jitter to be; averaging filters do
// not cancel it.
type Uniform struct {
	Max time.Duration
	Rng *rand.Rand
}

// Delay implements Policy.
func (u *Uniform) Delay(time.Duration, int64) time.Duration {
	if u.Max <= 0 {
		return 0
	}
	return time.Duration(u.Rng.Int63n(int64(u.Max) + 1))
}

// Bound implements Policy.
func (u *Uniform) Bound() time.Duration { return u.Max }

// PeriodicAggregation holds packets and releases them at the next integer
// multiple of Period, the way Wi-Fi frame aggregation or interrupt
// coalescing batches ACKs. The paper's PCC Vivace experiment (§5.3) delivers
// one flow's ACKs only at multiples of 60 ms using exactly this element.
type PeriodicAggregation struct{ Period time.Duration }

// Delay implements Policy.
func (p PeriodicAggregation) Delay(now time.Duration, _ int64) time.Duration {
	if p.Period <= 0 {
		return 0
	}
	rem := now % p.Period
	if rem == 0 {
		return 0
	}
	return p.Period - rem
}

// Bound implements Policy.
func (p PeriodicAggregation) Bound() time.Duration { return p.Period }

// oneShotDip is the Copa min-RTT poisoning element of §5.1: every packet is
// held for Base, except packets passing during one brief window starting at
// At, which are released immediately. With the path's configured
// propagation set to Rm−Base, all packets see an RTT floor of Rm except the
// dipped ones, which see Rm−Base — a one-off measurement error of Base.
//
// The window (rather than literally one packet) exists because the element
// never reorders: at line rate, packets are spaced closer than Base, so a
// single released packet would still be pinned behind its predecessor's
// release time. A window wider than Base guarantees at least one packet
// experiences the full dip, which is all the min-RTT filter needs.
type oneShotDip struct {
	Base time.Duration
	At   time.Duration
	// Width of the dip window; defaults to Base + 2 ms when zero.
	Width time.Duration
}

// Delay implements Policy.
func (o *oneShotDip) Delay(now time.Duration, _ int64) time.Duration {
	w := o.Width
	if w <= 0 {
		w = o.Base + 2*time.Millisecond
	}
	if now >= o.At && now < o.At+w {
		return 0
	}
	return o.Base
}

// Bound implements Policy.
func (o *oneShotDip) Bound() time.Duration { return o.Base }

// step adds nothing before At and D from At on. It is the adversary of
// the X-A1 Vegas contrast: switched on after the sender has learned its
// true minimum RTT, a persistent hold is indistinguishable from queueing
// (present from the start, it would be folded into the baseline).
type step struct{ D, At time.Duration }

// Delay implements Policy.
func (s step) Delay(now time.Duration, _ int64) time.Duration {
	if now < s.At {
		return 0
	}
	return s.D
}

// Bound implements Policy.
func (s step) Bound() time.Duration { return s.D }

// TokenBucket shapes packets through a token bucket filter: packets wait
// until the bucket holds enough tokens. When the long-run input rate stays
// below Rate the bucket is only a transient hold — a non-congestive delay
// source, not a bottleneck — which is how the paper classifies it.
type TokenBucket struct {
	// RateBytesPerSec is the token refill rate.
	RateBytesPerSec float64
	// BurstBytes is the bucket capacity.
	BurstBytes float64

	tokens   float64
	lastFill time.Duration
	primed   bool
}

// Delay implements Policy.
func (t *TokenBucket) Delay(now time.Duration, _ int64) time.Duration {
	const pkt = 1500
	if !t.primed {
		t.tokens = t.BurstBytes
		t.lastFill = now
		t.primed = true
	}
	elapsed := (now - t.lastFill).Seconds()
	t.tokens += elapsed * t.RateBytesPerSec
	if t.tokens > t.BurstBytes {
		t.tokens = t.BurstBytes
	}
	t.lastFill = now
	if t.tokens >= pkt {
		t.tokens -= pkt
		return 0
	}
	need := (pkt - t.tokens) / t.RateBytesPerSec
	t.tokens -= pkt // goes negative; future arrivals queue behind
	return time.Duration(need * float64(time.Second))
}

// Bound implements Policy.
func (t *TokenBucket) Bound() time.Duration {
	if t.RateBytesPerSec <= 0 {
		return 0
	}
	return time.Duration(t.BurstBytes / t.RateBytesPerSec * float64(time.Second))
}

// Scripted delays packets according to an arbitrary time function, clamped
// to [0, Max]. It is the raw adversary of the paper's model and the vehicle
// for the Theorem 1 trajectory emulation.
type Scripted struct {
	Fn  func(now time.Duration) time.Duration
	Max time.Duration
}

// Delay implements Policy.
func (s *Scripted) Delay(now time.Duration, _ int64) time.Duration {
	d := s.Fn(now)
	if d < 0 {
		d = 0
	}
	if d > s.Max {
		d = s.Max
	}
	return d
}

// Bound implements Policy.
func (s *Scripted) Bound() time.Duration { return s.Max }
