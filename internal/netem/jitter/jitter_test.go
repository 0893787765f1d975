package jitter

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestNone(t *testing.T) {
	var p None
	if p.Delay(time.Second, 0) != 0 || p.Bound() != 0 {
		t.Error("None must add zero delay with zero bound")
	}
}

func TestConstant(t *testing.T) {
	p := Constant{D: 5 * time.Millisecond}
	for _, now := range []time.Duration{0, time.Second, time.Hour} {
		if got := p.Delay(now, 0); got != 5*time.Millisecond {
			t.Errorf("Delay(%v) = %v, want 5ms", now, got)
		}
	}
	if p.Bound() != 5*time.Millisecond {
		t.Error("Bound mismatch")
	}
}

func TestUniformWithinBound(t *testing.T) {
	p := &Uniform{Max: 10 * time.Millisecond, Rng: rand.New(rand.NewSource(1))}
	for i := 0; i < 1000; i++ {
		d := p.Delay(time.Duration(i)*time.Millisecond, int64(i))
		if d < 0 || d > p.Bound() {
			t.Fatalf("delay %v outside [0, %v]", d, p.Bound())
		}
	}
}

func TestUniformZeroMax(t *testing.T) {
	p := &Uniform{Max: 0, Rng: rand.New(rand.NewSource(1))}
	if p.Delay(0, 0) != 0 {
		t.Error("zero-max Uniform must return 0")
	}
}

func TestPeriodicAggregation(t *testing.T) {
	p := PeriodicAggregation{Period: 60 * time.Millisecond}
	cases := []struct {
		now, want time.Duration
	}{
		{0, 0}, // exactly on boundary
		{time.Millisecond, 59 * time.Millisecond}, // just past a boundary
		{59 * time.Millisecond, time.Millisecond}, // just before next
		{60 * time.Millisecond, 0},                // next boundary
		{61 * time.Millisecond, 59 * time.Millisecond},
		{120 * time.Millisecond, 0},
	}
	for _, c := range cases {
		if got := p.Delay(c.now, 0); got != c.want {
			t.Errorf("Delay(%v) = %v, want %v", c.now, got, c.want)
		}
	}
	if p.Bound() != 60*time.Millisecond {
		t.Error("Bound mismatch")
	}
}

func TestPeriodicAggregationZero(t *testing.T) {
	p := PeriodicAggregation{}
	if p.Delay(time.Second, 0) != 0 {
		t.Error("zero-period aggregation must pass through")
	}
}

func TestOneShotDip(t *testing.T) {
	p := &oneShotDip{Base: time.Millisecond, At: 10 * time.Second, Width: 3 * time.Millisecond}
	if got := p.Delay(5*time.Second, 0); got != time.Millisecond {
		t.Errorf("before window: %v, want 1ms", got)
	}
	if got := p.Delay(10*time.Second, 0); got != 0 {
		t.Errorf("at window start: %v, want 0", got)
	}
	if got := p.Delay(10*time.Second+2*time.Millisecond, 0); got != 0 {
		t.Errorf("inside window: %v, want 0", got)
	}
	if got := p.Delay(10*time.Second+3*time.Millisecond, 0); got != time.Millisecond {
		t.Errorf("after window: %v, want 1ms", got)
	}
}

func TestOneShotDipDefaultWidth(t *testing.T) {
	p := &oneShotDip{Base: time.Millisecond, At: 0}
	// Default width is Base + 2ms = 3ms.
	if got := p.Delay(2*time.Millisecond, 0); got != 0 {
		t.Errorf("inside default window: %v, want 0", got)
	}
	if got := p.Delay(3*time.Millisecond, 0); got != time.Millisecond {
		t.Errorf("past default window: %v, want 1ms", got)
	}
}

func TestStep(t *testing.T) {
	p := step{D: 10 * time.Millisecond, At: 10 * time.Second}
	for _, c := range []struct{ now, want time.Duration }{
		{0, 0},
		{10*time.Second - 1, 0},
		{10 * time.Second, 10 * time.Millisecond},
		{time.Hour, 10 * time.Millisecond},
	} {
		if got := p.Delay(c.now, 0); got != c.want {
			t.Errorf("Delay(%v) = %v, want %v", c.now, got, c.want)
		}
	}
}

// TestParseTimedKinds checks that Parse builds the dip and step kinds
// with their fields in order and their bound equal to the declared delay,
// and refuses a value with the wrong field count or a negative field.
func TestParseTimedKinds(t *testing.T) {
	for _, c := range []struct {
		spec  string
		want  Policy
		bound time.Duration
	}{
		{"dip:1ms/10s/500ms", &oneShotDip{Base: time.Millisecond, At: 10 * time.Second, Width: 500 * time.Millisecond}, time.Millisecond},
		{"dip:2ms/0s/0s", &oneShotDip{Base: 2 * time.Millisecond}, 2 * time.Millisecond},
		{"step:10ms/10s", step{D: 10 * time.Millisecond, At: 10 * time.Second}, 10 * time.Millisecond},
	} {
		p, err := Parse(c.spec, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if !reflect.DeepEqual(p, c.want) {
			t.Errorf("%s: got %#v, want %#v", c.spec, p, c.want)
		}
		if p.Bound() != c.bound {
			t.Errorf("%s: Bound() = %v, want %v", c.spec, p.Bound(), c.bound)
		}
	}
	for _, spec := range []string{
		"dip:1ms/10s", "dip:1ms/10s/1ms/1ms", "dip:-1ms/10s/1ms", "dip:1ms/x/1ms",
		"step:10ms", "step:10ms/10s/1s", "step:10ms/-1s", "step:/10s",
	} {
		if _, err := Parse(spec, nil); err == nil {
			t.Errorf("%s: parsed, want an error", spec)
		}
	}
}

func TestTokenBucketPassesWithinRate(t *testing.T) {
	// 1500-byte packets every 10ms = 150 kB/s, bucket refills at 300 kB/s:
	// never delayed after priming.
	tb := &TokenBucket{RateBytesPerSec: 300_000, BurstBytes: 3000}
	for i := 0; i < 100; i++ {
		d := tb.Delay(time.Duration(i)*10*time.Millisecond, int64(i))
		if d != 0 {
			t.Fatalf("packet %d delayed %v under token rate", i, d)
		}
	}
}

func TestTokenBucketDelaysBurst(t *testing.T) {
	// A burst beyond the bucket must wait for refill.
	tb := &TokenBucket{RateBytesPerSec: 150_000, BurstBytes: 1500}
	if d := tb.Delay(0, 0); d != 0 {
		t.Fatalf("first packet delayed %v, want 0 (full bucket)", d)
	}
	d := tb.Delay(0, 1)
	if d <= 0 {
		t.Fatal("second packet in burst not delayed")
	}
	want := time.Duration(1500.0 / 150_000 * float64(time.Second))
	if d != want {
		t.Errorf("burst delay = %v, want %v", d, want)
	}
}

func TestScriptedClamping(t *testing.T) {
	p := &Scripted{
		Max: 10 * time.Millisecond,
		Fn: func(now time.Duration) time.Duration {
			return now - 5*time.Millisecond // negative early, huge late
		},
	}
	if got := p.Delay(0, 0); got != 0 {
		t.Errorf("negative script value not clamped to 0: %v", got)
	}
	if got := p.Delay(time.Second, 0); got != 10*time.Millisecond {
		t.Errorf("excess script value not clamped to Max: %v", got)
	}
	if got := p.Delay(8*time.Millisecond, 0); got != 3*time.Millisecond {
		t.Errorf("in-range script value altered: %v", got)
	}
}

// Property: every policy respects its own bound for arbitrary inputs.
func TestQuickPoliciesRespectBound(t *testing.T) {
	f := func(seed int64, nowMs uint16, seq int64) bool {
		rng := rand.New(rand.NewSource(seed))
		now := time.Duration(nowMs) * time.Millisecond
		policies := []Policy{
			None{},
			Constant{D: 7 * time.Millisecond},
			&Uniform{Max: 9 * time.Millisecond, Rng: rng},
			PeriodicAggregation{Period: 60 * time.Millisecond},
			&oneShotDip{Base: 2 * time.Millisecond, At: 50 * time.Millisecond},
			step{D: 3 * time.Millisecond, At: 40 * time.Millisecond},
			&Scripted{Max: 5 * time.Millisecond, Fn: func(t time.Duration) time.Duration {
				return time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
			}},
		}
		for _, p := range policies {
			d := p.Delay(now, seq)
			if d < 0 || d > p.Bound() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
