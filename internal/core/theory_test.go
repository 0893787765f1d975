package core

import (
	"math"
	"testing"
	"time"

	"starvation/internal/units"
)

func TestVegasEquilibriumRTT(t *testing.T) {
	// §4.1's example: α = 4 packets of 1500 bytes. At 96 Mbit/s that is
	// 0.5 ms of queueing; at 960 Mbit/s, 0.05 ms.
	rm := 100 * time.Millisecond
	if got := VegasEquilibriumRTT(units.Mbps(96), rm, 1, 4, 1500); got != rm+500*time.Microsecond {
		t.Errorf("RTT at 96 Mbit/s = %v, want Rm + 0.5ms", got)
	}
	if got := VegasEquilibriumRTT(units.Mbps(960), rm, 1, 4, 1500); got != rm+50*time.Microsecond {
		t.Errorf("RTT at 960 Mbit/s = %v, want Rm + 0.05ms", got)
	}
	// n flows queue n·α packets.
	if got := VegasEquilibriumRTT(units.Mbps(96), rm, 2, 4, 1500); got != rm+time.Millisecond {
		t.Errorf("two-flow RTT = %v, want Rm + 1ms", got)
	}
}

func TestBBRCwndLimitedRTT(t *testing.T) {
	// §5.2: RTT = 2·Rm + n·α/C.
	rm := 40 * time.Millisecond
	got := BBRCwndLimitedRTT(units.Mbps(120), rm, 2, 4, 1500)
	want := 2*rm + time.Duration(2*4*1500*8*1e9/120e6)
	if got != want {
		t.Errorf("BBR cwnd-limited RTT = %v, want %v", got, want)
	}
}

func TestBBRPacingDelayRange(t *testing.T) {
	lo, hi := BBRPacingDelayRange(100 * time.Millisecond)
	if lo != 100*time.Millisecond || hi != 125*time.Millisecond {
		t.Errorf("pacing range = [%v, %v], want [100ms, 125ms]", lo, hi)
	}
}

func TestVivaceDelayRange(t *testing.T) {
	lo, hi := VivaceDelayRange(100 * time.Millisecond)
	if lo != 100*time.Millisecond || hi != 105*time.Millisecond {
		t.Errorf("vivace range = [%v, %v], want [100ms, 105ms]", lo, hi)
	}
}

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

func TestExponentialRateDelayMatchesAlgo1(t *testing.T) {
	mu := ExponentialRateDelay(units.Kbps(100), 2, 120*time.Millisecond,
		60*time.Millisecond, 50*time.Millisecond, 10*time.Millisecond)
	// Queueing delay 10ms: μ = μ−·2^((120−10)/10) = 100k·2^11.
	want := 100e3 * math.Pow(2, 11)
	if math.Abs(float64(mu)-want)/want > 1e-9 {
		t.Errorf("μ = %v, want %v", float64(mu), want)
	}
}

func TestStarvationThreshold(t *testing.T) {
	if StarvationThreshold(5*time.Millisecond) != 10*time.Millisecond {
		t.Error("threshold must be 2·δmax")
	}
	if RequiredOscillation(10*time.Millisecond) != 5*time.Millisecond {
		t.Error("required oscillation must be D/2")
	}
}

func TestCopaDelayRangeShrinksWithRate(t *testing.T) {
	lo1, hi1 := CopaDelayRange(units.Mbps(1), 100*time.Millisecond, 0.5, 1500)
	lo2, hi2 := CopaDelayRange(units.Mbps(100), 100*time.Millisecond, 0.5, 1500)
	if hi2-lo2 >= hi1-lo1 {
		t.Errorf("Copa δ(C) must shrink with C: δ(1M)=%v δ(100M)=%v", hi1-lo1, hi2-lo2)
	}
	if lo1 < 100*time.Millisecond {
		t.Error("delay below Rm")
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
