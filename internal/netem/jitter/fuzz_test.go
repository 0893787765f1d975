package jitter

import (
	"math/rand"
	"testing"
	"time"
)

// FuzzPolicyBound drives every stateful policy with an arbitrary arrival
// pattern and checks the package contract: each returned delay lies in
// [0, Bound()]. TokenBucket is driven with arrivals spaced no tighter
// than its refill rate — the paper classifies it as a non-congestive
// delay source only while the input rate stays below the token rate, and
// under sustained overload its backlog delay legitimately exceeds the
// single-burst bound.
func FuzzPolicyBound(f *testing.F) {
	f.Add(int64(1), uint16(50), uint8(40))
	f.Add(int64(7), uint16(0), uint8(3))
	f.Add(int64(99), uint16(1000), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, maxMs uint16, n uint8) {
		maxD := time.Duration(maxMs) * time.Millisecond
		rng := rand.New(rand.NewSource(seed))
		policies := []Policy{
			None{},
			Constant{D: maxD},
			&Uniform{Max: maxD, Rng: rand.New(rand.NewSource(seed))},
			PeriodicAggregation{Period: maxD},
			PeriodicSpike{Period: 4 * maxD, SpikeLen: maxD},
			&GilbertElliott{PGoodToBad: 0.1, PBadToGood: 0.3, BadDelay: maxD,
				Rng: rand.New(rand.NewSource(seed))},
			&oneShotDip{Base: maxD, At: 20 * time.Millisecond},
			step{D: maxD, At: 20 * time.Millisecond},
			&Scripted{Max: maxD, Fn: func(now time.Duration) time.Duration {
				return now/7 - 3*time.Millisecond // wanders outside [0, Max]; must clamp
			}},
		}
		now := time.Duration(0)
		for i := uint8(0); i < n; i++ {
			now += time.Duration(rng.Int63n(int64(5*time.Millisecond) + 1))
			for _, p := range policies {
				d := p.Delay(now, int64(i))
				if d < 0 || d > p.Bound() {
					t.Fatalf("%T: delay %v outside [0, %v] at now=%v", p, d, p.Bound(), now)
				}
			}
		}

		// TokenBucket under compliant load: arrivals at least one packet
		// time apart at the token rate.
		tb := &TokenBucket{RateBytesPerSec: 1.5e6, BurstBytes: 15000}
		minGap := time.Duration(1500 / tb.RateBytesPerSec * float64(time.Second))
		now = 0
		for i := uint8(0); i < n; i++ {
			now += minGap + time.Duration(rng.Int63n(int64(time.Millisecond)+1))
			d := tb.Delay(now, int64(i))
			if d < 0 || d > tb.Bound() {
				t.Fatalf("TokenBucket: delay %v outside [0, %v] at compliant load", d, tb.Bound())
			}
		}
	})
}
