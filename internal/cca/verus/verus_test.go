package verus

import (
	"testing"
	"time"

	"starvation/internal/cca"
	"starvation/internal/network"
	"starvation/internal/units"
)

func feed(v *sender, now, rtt time.Duration) {
	v.OnAck(cca.AckSignal{Now: now, RTT: rtt, AckedBytes: v.mss,
		DeliveredBytes: v.mss, Packets: 1})
}

func TestSlowStartRampsUntilDelayRatio(t *testing.T) {
	v := newSender(1500)
	v.minRTTHint = 50 * time.Millisecond
	w0 := v.cwnd
	// Low delay: stays in slow start, multiplies per epoch.
	now := time.Duration(0)
	for i := 0; i < 200; i++ {
		now += 5 * time.Millisecond
		feed(v, now, 55*time.Millisecond)
	}
	if got := v.cwnd; got < 4*w0 {
		t.Errorf("cwnd after low-delay epochs = %v, want ramped", got)
	}
	if !v.inSlowStart {
		t.Error("left slow start below the delay-ratio threshold")
	}
	// Delay above R·min: exit.
	for i := 0; i < 50; i++ {
		now += 5 * time.Millisecond
		feed(v, now, 120*time.Millisecond)
	}
	if v.inSlowStart {
		t.Error("still in slow start above R·Dmin")
	}
}

func TestTargetDelayDynamics(t *testing.T) {
	v := newSender(1500)
	v.minRTTHint = 50 * time.Millisecond
	v.cwnd, v.inSlowStart = 20, false
	v.targetDelay = 80 * time.Millisecond
	v.smoothedMax.Update(float64(80 * time.Millisecond))

	// Above ratio: the target shrinks multiplicatively.
	now := time.Duration(0)
	for i := 0; i < 60; i++ {
		now += 5 * time.Millisecond
		feed(v, now, 150*time.Millisecond)
	}
	if v.targetDelay >= 80*time.Millisecond {
		t.Errorf("target = %v, want shrunk below 80ms at ratio 3", v.targetDelay)
	}
	// Below ratio: the target grows additively.
	before := v.targetDelay
	for i := 0; i < 400; i++ {
		now += 5 * time.Millisecond
		feed(v, now, 60*time.Millisecond)
	}
	if v.targetDelay <= before {
		t.Errorf("target = %v, want grown from %v at low delay", v.targetDelay, before)
	}
}

func TestProfileLearning(t *testing.T) {
	v := newSender(1500)
	v.minRTTHint = 50 * time.Millisecond
	// Teach the profile: window 30 ↔ 70ms, window 10 ↔ 55ms.
	v.cwnd = 10
	for i := 0; i < 20; i++ {
		v.learn(10, 55*time.Millisecond)
		v.learn(30, 70*time.Millisecond)
	}
	if w, ok := v.lookup(55 * time.Millisecond); !ok || w < 9 || w > 11 {
		t.Errorf("lookup(55ms) = %v,%v, want ~10", w, ok)
	}
	if w, ok := v.lookup(72 * time.Millisecond); !ok || w < 29 || w > 31 {
		t.Errorf("lookup(72ms) = %v,%v, want ~30 (nearest live bucket below)", w, ok)
	}
	if _, ok := v.lookup(40 * time.Millisecond); ok {
		t.Error("lookup below every bucket should miss")
	}
}

func TestLossReaction(t *testing.T) {
	v := newSender(1500)
	v.cwnd, v.inSlowStart = 40, false
	v.targetDelay = 100 * time.Millisecond
	v.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: true})
	if v.cwnd != 20 || v.targetDelay != 50*time.Millisecond {
		t.Errorf("after loss: cwnd %v target %v", v.cwnd, v.targetDelay)
	}
	v.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: false})
	if v.cwnd != 20 {
		t.Error("same-epoch loss reduced twice")
	}
}

func TestEndToEndConvergence(t *testing.T) {
	// On an ideal path Verus must utilize the link and keep delay bounded
	// near R·Rm — delay-convergent per Definition 1.
	n := network.New(
		network.Config{Rate: units.Mbps(24), Seed: 1},
		network.FlowSpec{Name: "verus", Alg: newSender(0), Rm: 50 * time.Millisecond},
	)
	res := n.Run(30 * time.Second)
	t.Logf("\n%s", res)
	if res.Utilization() < 0.7 {
		t.Errorf("utilization %.3f, want >= 0.7", res.Utilization())
	}
	f := res.Flows[0].Stat
	// R=2: equilibrium delays near 2·Rm, certainly bounded by 3·Rm.
	if f.SteadyRTTHi > 150*time.Millisecond {
		t.Errorf("steady RTT up to %v, want bounded near R·Rm = 100ms", f.SteadyRTTHi)
	}
}

func TestRegistry(t *testing.T) {
	if f := cca.Lookup("verus"); f == nil || f(1500, nil).Name() != "verus" {
		t.Fatal("verus not registered")
	}
}
