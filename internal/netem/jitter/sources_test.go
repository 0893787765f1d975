package jitter

import (
	"math/rand"
	"testing"
	"time"
)

func TestGilbertElliottStates(t *testing.T) {
	g := &GilbertElliott{
		PGoodToBad: 0.1, PBadToGood: 0.3,
		BadDelay: 8 * time.Millisecond,
		Rng:      rand.New(rand.NewSource(1)),
	}
	badCount := 0
	const n = 100000
	for i := 0; i < n; i++ {
		d := g.Delay(time.Duration(i)*time.Millisecond, int64(i))
		if d != 0 && d != 8*time.Millisecond {
			t.Fatalf("delay %v, want 0 or 8ms", d)
		}
		if d > 0 {
			badCount++
		}
	}
	// Stationary bad fraction = p/(p+q) = 0.1/0.4 = 0.25.
	frac := float64(badCount) / n
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("bad-state fraction = %.3f, want ~0.25", frac)
	}
	if g.Bound() != 8*time.Millisecond {
		t.Error("bound mismatch")
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	// With sticky states, consecutive packets must share a state far more
	// often than independent draws would.
	g := &GilbertElliott{
		PGoodToBad: 0.01, PBadToGood: 0.05,
		BadDelay: 5 * time.Millisecond,
		Rng:      rand.New(rand.NewSource(2)),
	}
	var prev time.Duration
	same := 0
	const n = 50000
	for i := 0; i < n; i++ {
		d := g.Delay(0, int64(i))
		if i > 0 && (d > 0) == (prev > 0) {
			same++
		}
		prev = d
	}
	if frac := float64(same) / n; frac < 0.9 {
		t.Errorf("state persistence = %.3f, want bursty (> 0.9)", frac)
	}
}

func TestPeriodicSpike(t *testing.T) {
	p := PeriodicSpike{Period: 100 * time.Millisecond, SpikeLen: 10 * time.Millisecond}
	cases := []struct {
		now, want time.Duration
	}{
		{0, 10 * time.Millisecond},                      // spike start: full hold
		{5 * time.Millisecond, 5 * time.Millisecond},    // mid-spike: hold to end
		{10 * time.Millisecond, 0},                      // spike over
		{99 * time.Millisecond, 0},                      //
		{100 * time.Millisecond, 10 * time.Millisecond}, // next spike
		{205 * time.Millisecond, 5 * time.Millisecond},
	}
	for _, c := range cases {
		if got := p.Delay(c.now, 0); got != c.want {
			t.Errorf("Delay(%v) = %v, want %v", c.now, got, c.want)
		}
	}
	if p.Bound() != 10*time.Millisecond {
		t.Error("bound mismatch")
	}
	var zero PeriodicSpike
	if zero.Delay(time.Second, 0) != 0 {
		t.Error("zero-value spike must pass through")
	}
}

func TestPeriodicSpikeNoReorderThroughBox(t *testing.T) {
	// Packets arriving just before a spike must not overtake held ones;
	// the DelayBox release-clamp handles it, but the policy's own shape
	// (hold-until-end) is already monotone: verify releases are ordered.
	p := PeriodicSpike{Period: 50 * time.Millisecond, SpikeLen: 20 * time.Millisecond}
	var lastRelease time.Duration
	for nowMs := 0; nowMs < 200; nowMs++ {
		now := time.Duration(nowMs) * time.Millisecond
		rel := now + p.Delay(now, 0)
		if rel < lastRelease {
			t.Fatalf("release %v before previous %v", rel, lastRelease)
		}
		lastRelease = rel
	}
}
