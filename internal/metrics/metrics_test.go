package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestJainIndex(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 1, 1, 1}, 1},
		{[]float64{1, 0, 0, 0}, 0.25},
		{[]float64{}, 0},
		{[]float64{0, 0}, 1}, // degenerate all-zero: trivially equal
		{[]float64{5}, 1},
	}
	for _, c := range cases {
		if got := JainIndex(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("JainIndex(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio([]float64{10, 100}); got != 10 {
		t.Errorf("Ratio = %v, want 10", got)
	}
	if got := Ratio([]float64{5}); got != 1 {
		t.Errorf("single-flow Ratio = %v, want 1", got)
	}
	if got := Ratio(nil); got != 1 {
		t.Errorf("empty Ratio = %v, want 1", got)
	}
	if got := Ratio([]float64{0, 10}); !math.IsInf(got, 1) {
		t.Errorf("zero-min Ratio = %v, want +Inf (starvation limit)", got)
	}
	if got := Ratio([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero Ratio = %v, want 1", got)
	}
}

// Property: Jain's index is scale-invariant and in (0, 1].
func TestQuickJainProperties(t *testing.T) {
	f := func(seed int64, scale uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 1
		xs := make([]float64, n)
		ys := make([]float64, n)
		k := float64(scale%10) + 1
		for i := range xs {
			xs[i] = rng.Float64() + 0.01
			ys[i] = xs[i] * k
		}
		j1, j2 := JainIndex(xs), JainIndex(ys)
		if math.Abs(j1-j2) > 1e-9 {
			return false // not scale invariant
		}
		return j1 > 0 && j1 <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Jain's index is 1/n exactly when one flow holds everything, and
// attains 1 only for equal allocations.
func TestQuickJainExtremes(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%16) + 2
		solo := make([]float64, n)
		solo[0] = 42
		if math.Abs(JainIndex(solo)-1/float64(n)) > 1e-9 {
			return false
		}
		equal := make([]float64, n)
		for i := range equal {
			equal[i] = 7
		}
		return math.Abs(JainIndex(equal)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Ratio ≥ 1 always, and Ratio = 1 iff all allocations equal (for
// positive inputs).
func TestQuickRatioProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() + 0.1
		}
		r := Ratio(xs)
		if r < 1 {
			return false
		}
		allEq := true
		for _, x := range xs[1:] {
			if x != xs[0] {
				allEq = false
			}
		}
		if allEq && r != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
