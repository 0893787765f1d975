package vivace

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"starvation/internal/units"
)

func newTest() *sender {
	return newSender(config{rng: rand.New(rand.NewSource(1))})
}

func TestRegressionSlope(t *testing.T) {
	// Exact line: rtt = 0.1 + 0.5·t.
	var ts, vs []float64
	for i := 0; i < 10; i++ {
		x := float64(i) * 0.01
		ts = append(ts, x)
		vs = append(vs, 0.1+0.5*x)
	}
	if got := regressionSlope(ts, vs); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("slope = %v, want 0.5", got)
	}
	if got := regressionSlope(nil, nil); got != 0 {
		t.Errorf("empty slope = %v, want 0", got)
	}
	if got := regressionSlope([]float64{1}, []float64{2}); got != 0 {
		t.Errorf("single-sample slope = %v, want 0", got)
	}
	// Degenerate x (all samples at one instant, the ACK-burst case).
	if got := regressionSlope([]float64{3, 3, 3}, []float64{1, 2, 9}); got != 0 {
		t.Errorf("degenerate-x slope = %v, want 0", got)
	}
}

func TestUtilityMonotoneInThroughput(t *testing.T) {
	v := newTest()
	lo := v.utility(miStats{ackedB: 100_000, sentB: 100_000})
	hi := v.utility(miStats{ackedB: 1_000_000, sentB: 1_000_000})
	if hi <= lo {
		t.Errorf("utility not increasing in loss-free throughput: %v <= %v", hi, lo)
	}
}

func TestUtilityPenalizesPositiveGradientOnly(t *testing.T) {
	v := newTest()
	base := v.utility(miStats{ackedB: 500_000, sentB: 500_000, gradient: 0})
	pos := v.utility(miStats{ackedB: 500_000, sentB: 500_000, gradient: 0.1})
	neg := v.utility(miStats{ackedB: 500_000, sentB: 500_000, gradient: -0.1})
	if pos >= base {
		t.Error("positive RTT gradient not penalized")
	}
	if neg != base {
		t.Error("negative RTT gradient altered utility (must be clipped)")
	}
}

func TestUtilityPenalizesLoss(t *testing.T) {
	v := newTest()
	clean := v.utility(miStats{ackedB: 500_000, sentB: 500_000})
	lossy := v.utility(miStats{ackedB: 450_000, sentB: 500_000}) // 10% loss
	if lossy >= clean {
		t.Error("loss not penalized")
	}
}

func TestSlowStartDoublesWhileUtilityGrows(t *testing.T) {
	v := newTest()
	r0 := v.rate
	now := time.Duration(0)
	// Three full MIs (warmup+measure) with clean, fast delivery.
	for i := 0; i < 6; i++ {
		now += v.TickInterval()
		// Generous delivery during the measuring half.
		v.mi.ackedB = int64(v.mi.rate * 1e6 / 8 * v.miLen.Seconds())
		v.mi.sentB = v.mi.ackedB
		v.OnTick(now)
	}
	if v.rate < 4*r0 {
		t.Errorf("rate after 3 clean MIs = %v, want >= %v (doubling)", v.rate, 4*r0)
	}
}

func TestProbePairAlternatesAroundRate(t *testing.T) {
	v := newTest()
	v.ph = phProbeFirst
	v.rate = 10
	now := time.Duration(0)
	rates := map[float64]bool{}
	for i := 0; i < 12; i++ {
		now += v.TickInterval()
		v.mi.ackedB = 10000
		v.mi.sentB = 10000
		v.OnTick(now)
		rates[math.Round(v.mi.rate*1000)/1000] = true
	}
	// Probe rates must bracket the base rate with ±ε.
	sawAbove, sawBelow := false, false
	for r := range rates {
		if r > v.rate*1.01 {
			sawAbove = true
		}
		if r < v.rate*0.99 {
			sawBelow = true
		}
	}
	if !sawAbove || !sawBelow {
		t.Errorf("probe rates did not bracket the base rate: %v", rates)
	}
}

func TestStepConfidenceAmplification(t *testing.T) {
	v := newTest()
	v.rate = 10
	v.step(10, 5) // up
	d1 := v.rate - 10
	prev := v.rate
	v.step(10, 5) // up again: amplified
	d2 := v.rate - prev
	if d2 <= d1 {
		t.Errorf("confidence amplification missing: steps %v then %v", d1, d2)
	}
	prev = v.rate
	v.step(5, 10) // direction flip: reset
	d3 := prev - v.rate
	if d3 <= 0 {
		t.Error("downward step did not reduce rate")
	}
}

func TestRateFloor(t *testing.T) {
	v := newTest()
	v.rate = 0.06
	for i := 0; i < 50; i++ {
		v.step(0, 100) // hard down
	}
	if v.rate < minRate {
		t.Errorf("rate %v fell below floor %v", v.rate, minRate)
	}
	if v.PacingRate() < units.Mbps(minRate) {
		t.Error("pacing below floor")
	}
}

func TestRateBasedInterface(t *testing.T) {
	v := newTest()
	if v.Window() != 0 {
		t.Error("Vivace must not impose a window")
	}
	if v.PacingRate() <= 0 {
		t.Error("Vivace must pace")
	}
	if v.TickInterval() <= 0 {
		t.Error("tick interval must be positive")
	}
}

// TestNewWithoutRngPanics checks newSender refuses a missing generator instead
// of drawing from a stream outside the run's seed tree.
func TestNewWithoutRngPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "vivace: config.rng is nil" {
			t.Errorf("newSender(config{}) recovered %v, want a panic naming config.rng", r)
		}
	}()
	newSender(config{})
}
