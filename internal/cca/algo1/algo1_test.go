package algo1

import (
	"math"
	"testing"
	"time"

	"starvation/internal/cca"
	"starvation/internal/units"
)

func newTest() *Algo1 {
	return New(Config{MSS: 1500, Rm: 50 * time.Millisecond})
}

func TestTargetRateExponentialSpacing(t *testing.T) {
	a := newTest()
	// Per the §6.3 design, rates a factor s apart map to delays D apart:
	// μ(d) / μ(d+D) = s for any d.
	d := 70 * time.Millisecond
	r1 := float64(a.targetRate(d))
	r2 := float64(a.targetRate(d + 10*time.Millisecond))
	if got := r1 / r2; math.Abs(got-2) > 1e-9 {
		t.Errorf("rate ratio across D of delay = %v, want s = 2", got)
	}
}

func TestTargetRateAtRmax(t *testing.T) {
	a := newTest()
	// At d = Rm + RmaxOffset, the target is exactly μ−.
	d := 50*time.Millisecond + 120*time.Millisecond
	got := a.targetRate(d)
	if math.Abs(float64(got)-float64(DefaultMuMin)) > 1 {
		t.Errorf("μ(Rmax) = %v, want μ− = %v", got, DefaultMuMin)
	}
}

func TestMuPlus(t *testing.T) {
	a := newTest()
	// μ+ = μ−·s^((Rmax−D)/D) = 100 Kbit/s · 2^11 = 204.8 Mbit/s.
	want := 100e3 * math.Pow(2, 11)
	if got := float64(a.muPlus()); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("μ+ = %v, want %v", got, want)
	}
}

func TestAIMDUpdate(t *testing.T) {
	a := newTest()
	// Below target: additive increase by A per tick.
	a.lastRTT = 55 * time.Millisecond // 5ms queueing: target well above μ−
	r0 := a.mu
	a.OnTick(0)
	if got := a.mu - r0; math.Abs(got-float64(a.cfg.A)) > 1 {
		t.Errorf("additive increase = %v, want %v", got, float64(a.cfg.A))
	}
	// Above target: multiplicative decrease by B.
	a.mu = 1e9 // 1 Gbit/s, far above any target
	a.OnTick(time.Second)
	if got := a.mu; math.Abs(got-1e9*DefaultB) > 1 {
		t.Errorf("multiplicative decrease to %v, want %v", got, 1e9*DefaultB)
	}
}

func TestConvergesToTargetAtFixedDelay(t *testing.T) {
	// With a constant observed RTT, the rate must converge to the target
	// rate μ(d) and oscillate within a factor (1/B) of it.
	a := newTest()
	d := 80 * time.Millisecond
	a.lastRTT = d
	for i := 0; i < 5000; i++ {
		a.OnTick(time.Duration(i) * 50 * time.Millisecond)
	}
	target := float64(a.targetRate(d))
	got := a.mu
	if got < target*DefaultB*0.9 || got > target/DefaultB*1.1 {
		t.Errorf("rate = %v, want within AIMD band of target %v", got, target)
	}
}

func TestTickIntervalIsRm(t *testing.T) {
	a := newTest()
	if got := a.TickInterval(); got != 50*time.Millisecond {
		t.Errorf("tick interval = %v, want Rm", got)
	}
	// Without a pinned Rm the estimate comes from the min filter.
	b := New(Config{MSS: 1500})
	b.OnAck(cca.AckSignal{Now: 0, RTT: 30 * time.Millisecond})
	if got := b.TickInterval(); got != 30*time.Millisecond {
		t.Errorf("estimated tick interval = %v, want 30ms", got)
	}
}

func TestRateFloor(t *testing.T) {
	a := newTest()
	a.lastRTT = 10 * time.Second // hopeless delay
	for i := 0; i < 1000; i++ {
		a.OnTick(time.Duration(i) * 50 * time.Millisecond)
	}
	if units.Rate(a.mu) < DefaultMuMin {
		t.Errorf("rate %v below μ−", units.Rate(a.mu))
	}
}

func TestWindowCap(t *testing.T) {
	a := newTest()
	a.mu = 100e6 // 100 Mbit/s
	// 2·μ·Rmax = 2·12.5MB/s·0.17s = 4.25 MB.
	want := int(2 * 100e6 / 8 * 0.17)
	got := a.Window()
	if math.Abs(float64(got-want)) > float64(want)/100 {
		t.Errorf("window cap = %d, want ~%d", got, want)
	}
}

func TestLossBacksOff(t *testing.T) {
	a := newTest()
	a.mu = 50e6
	a.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: true})
	if got := a.mu; got != 50e6*DefaultB {
		t.Errorf("rate after loss = %v, want %v", got, 50e6*DefaultB)
	}
	a.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: false})
	if got := a.mu; got != 50e6*DefaultB {
		t.Error("same-epoch loss reduced twice")
	}
}

func TestFigureOfMeritMatchesTheory(t *testing.T) {
	// The supported range μ+/μ− must equal Equation 2's s^((Rmax−D)/D)
	// evaluated with queueing-delay budget Rmax (the paper's Rmax − Rm).
	a := newTest()
	got := float64(a.muPlus()) / float64(DefaultMuMin)
	want := math.Pow(2, (120.0-10)/10)
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("μ+/μ− = %v, want %v", got, want)
	}
}

// muPlus returns the top of the s-fair rate range, μ+ = μ(Rm + D).
func (a *Algo1) muPlus() units.Rate {
	exp := (DefaultRmaxOffset - DefaultD).Seconds() / DefaultD.Seconds()
	return units.Rate(float64(DefaultMuMin) * math.Pow(DefaultS, exp))
}
