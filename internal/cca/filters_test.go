package cca

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestWindowedMinBasics(t *testing.T) {
	f := WindowedMin{Window: 10 * time.Second}
	f.Update(0, 5)
	f.Update(time.Second, 3)
	f.Update(2*time.Second, 7)
	if got := f.Get(-1); got != 3 {
		t.Errorf("min = %v, want 3", got)
	}
	// The 3 expires after its window.
	f.Update(12*time.Second, 9)
	if got := f.Get(-1); got != 7 {
		t.Errorf("min after expiry = %v, want 7", got)
	}
}

func TestWindowedMaxBasics(t *testing.T) {
	f := WindowedMax{Window: 10 * time.Second}
	f.Update(0, 5)
	f.Update(time.Second, 8)
	f.Update(2*time.Second, 2)
	if got := f.Get(-1); got != 8 {
		t.Errorf("max = %v, want 8", got)
	}
	f.Update(11500*time.Millisecond, 1)
	// The 8@1s has expired; 2@2s is still live and dominates the new 1.
	if got := f.Get(-1); got != 2 {
		t.Errorf("max after expiry = %v, want 2", got)
	}
}

func TestWindowedEmptyDefault(t *testing.T) {
	var min WindowedMin
	var max WindowedMax
	if min.Get(42) != 42 || max.Get(42) != 42 {
		t.Error("empty filters must return the default")
	}
	if len(min.q) != 0 || len(max.q) != 0 {
		t.Error("fresh filters must report empty")
	}
}

func TestMinRTT(t *testing.T) {
	var m MinRTT
	if m.set {
		t.Error("fresh MinRTT reports valid")
	}
	if m.Get(time.Second) != time.Second {
		t.Error("default not returned")
	}
	m.Update(0, 100*time.Millisecond)
	m.Update(time.Second, 90*time.Millisecond)
	m.Update(2*time.Second, 95*time.Millisecond)
	if got := m.Get(0); got != 90*time.Millisecond {
		t.Errorf("min = %v, want 90ms", got)
	}
	m.Update(3*time.Second, 0) // invalid sample ignored
	if got := m.Get(0); got != 90*time.Millisecond {
		t.Error("zero RTT sample altered the minimum")
	}
}

func TestEWMA(t *testing.T) {
	e := EWMA{Alpha: 0.5}
	if e.Get(7) != 7 {
		t.Error("default not returned before samples")
	}
	e.Update(10)
	if e.Get(0) != 10 {
		t.Error("first sample must initialize exactly")
	}
	e.Update(20)
	if got := e.Get(0); got != 15 {
		t.Errorf("EWMA = %v, want 15", got)
	}
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	Register("test-dup-cca", func(mss int, _ *rand.Rand) Algorithm { return nil })
	t.Cleanup(func() { delete(registry, "test-dup-cca") })
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	Register("test-dup-cca", func(mss int, _ *rand.Rand) Algorithm { return nil })
}

func TestLookupUnknown(t *testing.T) {
	if Lookup("no-such-cca") != nil {
		t.Error("unknown lookup returned a factory")
	}
}

// Property: windowed min/max agree with a brute-force scan over the live
// window for arbitrary sample streams.
func TestQuickWindowedFiltersMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const window = 100 * time.Millisecond
		min := WindowedMin{Window: window}
		max := WindowedMax{Window: window}
		type sample struct {
			t time.Duration
			v float64
		}
		var all []sample
		now := time.Duration(0)
		for i := 0; i < 300; i++ {
			now += time.Duration(rng.Intn(20)) * time.Millisecond
			v := rng.Float64()
			all = append(all, sample{now, v})
			min.Update(now, v)
			max.Update(now, v)

			bMin, bMax := 1e18, -1e18
			for _, s := range all {
				if now-s.t > window {
					continue
				}
				if s.v < bMin {
					bMin = s.v
				}
				if s.v > bMax {
					bMax = s.v
				}
			}
			if min.Get(-1) != bMin || max.Get(-1) != bMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
