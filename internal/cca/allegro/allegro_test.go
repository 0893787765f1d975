package allegro

import (
	"math/rand"
	"testing"
	"time"
)

func newTest() *sender {
	return newSender(1500, rand.New(rand.NewSource(1)))
}

// tick closes the warmup half then the measuring half with the given
// delivered fraction of what was sent at the MI's rate.
func tick(a *sender, now *time.Duration, deliveredFrac float64) {
	// Warmup half.
	*now += a.TickInterval()
	a.OnTick(*now)
	// Measuring half: fill the counters as the sender would.
	sent := int64(a.cur.rate * 1e6 / 8 * a.miLen.Seconds())
	a.cur.sentB = sent
	a.cur.ackedB = int64(float64(sent) * deliveredFrac)
	*now += a.TickInterval()
	a.OnTick(*now)
}

func TestUtilitySigmoidCliff(t *testing.T) {
	a := newTest()
	clean := a.utility(80, 0)
	mild := a.utility(80, 0.02)
	heavy := a.utility(80, 0.10)
	if !(clean > mild) {
		t.Errorf("2%% loss should reduce utility: %v vs %v", clean, mild)
	}
	if mild <= 0 {
		t.Errorf("2%% loss utility = %v, want positive (below the 5%% cliff)", mild)
	}
	if heavy >= 0 {
		t.Errorf("10%% loss utility = %v, want negative (past the 5%% cliff)", heavy)
	}
}

func TestScoreSmoothsLossAcrossMIs(t *testing.T) {
	a := newTest()
	// A single 10%-loss MI after a clean history scores better than the
	// raw utility at 10%, because half the weight is on the smoothed
	// history — the debouncing that keeps binomial noise off the cliff.
	a.score(mi{ackedB: 1_000_000, sentB: 1_000_000})
	smoothed := a.score(mi{ackedB: 900_000, sentB: 1_000_000})
	raw := a.utility(float64(900_000*8)/a.miLen.Seconds()/1e6, 0.10)
	if smoothed <= raw {
		t.Errorf("smoothed score %v not above raw %v", smoothed, raw)
	}
}

func TestStartingDoubles(t *testing.T) {
	a := newTest()
	r0 := a.rate
	now := time.Duration(0)
	for i := 0; i < 4; i++ {
		tick(a, &now, 1.0)
	}
	if a.rate < 8*r0 {
		t.Errorf("rate after 4 clean MIs = %v, want >= %v", a.rate, 8*r0)
	}
	if a.st != stStarting {
		t.Error("left Starting despite increasing utility")
	}
}

func TestStartingToleratesOneNoisyMI(t *testing.T) {
	a := newTest()
	now := time.Duration(0)
	tick(a, &now, 1.0)
	tick(a, &now, 1.0)
	r := a.rate
	// One bad interval (8% loss): debounced, remains in Starting.
	tick(a, &now, 0.92)
	if a.st != stStarting {
		t.Fatal("one noisy MI ended the ramp")
	}
	// A clean re-measure resumes doubling.
	tick(a, &now, 1.0)
	if a.rate < r {
		t.Errorf("rate fell after recovery: %v < %v", a.rate, r)
	}
}

func TestStartingExitsOnPersistentCollapse(t *testing.T) {
	a := newTest()
	now := time.Duration(0)
	for i := 0; i < 3; i++ {
		tick(a, &now, 1.0)
	}
	peak := a.rate
	// Two consecutive heavily lossy MIs: revert and probe.
	tick(a, &now, 0.5)
	tick(a, &now, 0.5)
	if a.st == stStarting {
		t.Fatal("still Starting after two collapsed MIs")
	}
	if a.rate >= peak {
		t.Errorf("rate not reverted: %v >= %v", a.rate, peak)
	}
}

func TestDecisionTrialAssignments(t *testing.T) {
	a := newTest()
	a.rate = 50
	a.enterDecision(0)
	up, down := 0, 0
	for _, d := range a.trialDirs {
		switch d {
		case 1:
			up++
		case -1:
			down++
		default:
			t.Fatalf("invalid trial dir %d", d)
		}
	}
	if up != 2 || down != 2 {
		t.Errorf("trial dirs = %v, want two of each", a.trialDirs)
	}
}

func TestDecisionInconclusiveWidensEpsilon(t *testing.T) {
	a := newTest()
	a.rate = 50
	a.enterDecision(0)
	eps0 := a.eps
	// Feed four identical utilities: inconclusive.
	now := time.Duration(0)
	for i := 0; i < 4; i++ {
		// Manually place a fixed utility: equal deliveries each trial.
		a.warmup = false
		a.cur.sentB = 1_000_000
		a.cur.ackedB = 1_000_000
		now += a.TickInterval()
		a.OnTick(now)
	}
	if a.eps <= eps0 {
		t.Errorf("epsilon not widened after inconclusive trials: %v", a.eps)
	}
	if a.eps > epsilonMax {
		t.Errorf("epsilon exceeded max: %v", a.eps)
	}
}

func TestMILengthScalesWithRate(t *testing.T) {
	a := newTest()
	a.rate = 0.5 // Mbit/s; the scored tick doubles it to 1.0
	a.OnTick(0)  // warmup toggle
	a.cur.sentB = 1
	a.cur.ackedB = 1
	a.OnTick(time.Millisecond)
	// 30 packets at the post-double 1 Mbit/s = 30 × 12 ms = 360 ms.
	if a.miLen < 350*time.Millisecond {
		t.Errorf("low-rate MI = %v, want >= 350ms (30-packet floor)", a.miLen)
	}
	if a.miLen > time.Second {
		t.Errorf("MI = %v, want capped at 1s", a.miLen)
	}
}

func TestRateFloorHolds(t *testing.T) {
	a := newTest()
	now := time.Duration(0)
	for i := 0; i < 40; i++ {
		tick(a, &now, 0.3) // catastrophic loss forever
	}
	if a.rate < minRate {
		t.Errorf("rate %v below floor", a.rate)
	}
}

func TestRateBasedInterface(t *testing.T) {
	a := newTest()
	if a.Window() != 0 {
		t.Error("Allegro must not impose a window")
	}
	if a.PacingRate() <= 0 {
		t.Error("Allegro must pace")
	}
}

// TestNewWithoutRngPanics checks newSender refuses a missing generator
// instead of drawing from a stream outside the run's seed tree.
func TestNewWithoutRngPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "allegro: rng is nil" {
			t.Errorf("newSender(1500, nil) recovered %v, want a panic naming the rng", r)
		}
	}()
	newSender(1500, nil)
}
