package core

import (
	"math"
	"testing"
	"time"

	"starvation/internal/units"
)

func TestFigureOfMeritTable63(t *testing.T) {
	// The paper's §6.3 numbers: D=10ms, Rmax−Rm=100ms.
	rm := time.Duration(0)
	rmax := 100 * time.Millisecond
	d := 10 * time.Millisecond

	// Vegas family, Eq. 1: (Rmax−Rm)/D·(1−1/s) = 10·(1−1/2) = 5 for s=2.
	if got := VegasFigureOfMerit(rmax, rm, d, 2); got != 5 {
		t.Errorf("Vegas FoM(s=2) = %v, want 5", got)
	}
	// Exponential, Eq. 2: s^((Rmax−Rm−D)/D) = 2^9 = 512 for s=2
	// ("we can support a range of 2^10 ≈ 10^3" counts the full Rmax/D
	// budget; the closed form subtracts the D of headroom).
	if got := ExponentialFigureOfMerit(rmax, rm, d, 2); got != 512 {
		t.Errorf("Exp FoM(s=2) = %v, want 512", got)
	}
	// s=4: 4^9 ≈ 2.6·10^5, the paper's "with s = 4, that increases to
	// 2^20 ≈ 10^6" order of magnitude.
	if got := ExponentialFigureOfMerit(rmax, rm, d, 4); got != math.Pow(4, 9) {
		t.Errorf("Exp FoM(s=4) = %v, want 4^9", got)
	}
	// The exponential mapping beats the Vegas family by orders of
	// magnitude for every valid parameter set.
	for _, s := range []float64{1.5, 2, 4, 8} {
		v := VegasFigureOfMerit(rmax, rm, d, s)
		e := ExponentialFigureOfMerit(rmax, rm, d, s)
		if e <= v {
			t.Errorf("s=%v: exponential FoM %v not above Vegas %v", s, e, v)
		}
	}
}

func TestFigureOfMeritDegenerate(t *testing.T) {
	if VegasFigureOfMerit(time.Second, 0, 0, 2) != 0 {
		t.Error("zero D must yield 0")
	}
	if ExponentialFigureOfMerit(time.Second, 0, time.Millisecond, 1) != 0 {
		t.Error("s <= 1 must yield 0")
	}
}

func TestStarvationThreshold(t *testing.T) {
	if StarvationThreshold(5*time.Millisecond) != 10*time.Millisecond {
		t.Error("threshold must be 2·δmax")
	}
}

func TestLogSpace(t *testing.T) {
	rates := LogSpace(units.Mbps(0.1), units.Mbps(100), 4)
	if len(rates) != 4 {
		t.Fatalf("len = %d", len(rates))
	}
	if math.Abs(rates[0].Mbit()-0.1) > 1e-9 || math.Abs(rates[3].Mbit()-100) > 1e-6 {
		t.Errorf("endpoints = %v, %v", rates[0], rates[3])
	}
	// Geometric spacing: constant ratio.
	r1 := float64(rates[1]) / float64(rates[0])
	r2 := float64(rates[2]) / float64(rates[1])
	if math.Abs(r1-r2) > 1e-6 {
		t.Errorf("ratios differ: %v vs %v", r1, r2)
	}
}
