package copa

import (
	"testing"
	"time"

	"starvation/internal/cca"
)

func feed(c *sender, now, rtt time.Duration) {
	c.OnAck(cca.AckSignal{Now: now, RTT: rtt, AckedBytes: c.cfg.mss,
		DeliveredBytes: c.cfg.mss, Packets: 1})
}

func drive(c *sender, start, rtt time.Duration, epochs int) time.Duration {
	now := start
	for e := 0; e < epochs; e++ {
		acks := int(c.cwnd)
		if acks < 1 {
			acks = 1
		}
		per := rtt / time.Duration(acks)
		for i := 0; i < acks; i++ {
			now += per
			feed(c, now, rtt)
		}
	}
	return now
}

func TestMinRTTTracking(t *testing.T) {
	c := newSender(config{mss: 1500})
	feed(c, 0, 120*time.Millisecond)
	feed(c, time.Millisecond, 100*time.Millisecond)
	feed(c, 2*time.Millisecond, 110*time.Millisecond)
	if got := c.minRTT(); got != 100*time.Millisecond {
		t.Errorf("MinRTT = %v, want 100ms (lifetime)", got)
	}
}

func TestWindowedMinRTTExpires(t *testing.T) {
	c := newSender(config{mss: 1500, minRTTWindow: 10 * time.Second})
	feed(c, 0, 99*time.Millisecond)
	feed(c, time.Second, 100*time.Millisecond)
	if got := c.minRTT(); got != 99*time.Millisecond {
		t.Errorf("MinRTT = %v, want 99ms while in window", got)
	}
	feed(c, 15*time.Second, 100*time.Millisecond)
	if got := c.minRTT(); got != 100*time.Millisecond {
		t.Errorf("MinRTT = %v, want 99ms sample expired", got)
	}
}

func TestSlowStartExitsAtTarget(t *testing.T) {
	c := newSender(config{mss: 1500})
	if !c.inSlowStart {
		t.Fatal("fresh Copa should be in slow start")
	}
	// Constant 100ms floor then growing queueing: feed a high queue so the
	// target rate drops below the current rate and slow start exits.
	feed(c, 0, 100*time.Millisecond)
	c.cwnd = 100
	drive(c, time.Millisecond, 200*time.Millisecond, 2)
	if c.inSlowStart {
		t.Error("Copa still in slow start despite rate above target")
	}
}

func TestSteadyStateOscillatesNearTarget(t *testing.T) {
	// Self-consistent drive: the RTT presented reflects Copa's own window
	// (single flow on a C = 12 Mbit/s path, base 100 ms), so the closed
	// loop should settle near cwnd = BDP + 1/δ·... packets and oscillate.
	c := newSender(config{mss: 1500})
	base := 100 * time.Millisecond
	const bdpPkts = 100.0 // 12 Mbit/s × 100ms / 1500B
	now := time.Duration(0)
	min, max := 1e18, 0.0
	for i := 0; i < 30000; i++ {
		q := (c.cwnd - bdpPkts) / bdpPkts * float64(base) // fluid queue delay
		if q < 0 {
			q = 0
		}
		rtt := base + time.Duration(q)
		now += rtt / time.Duration(int(c.cwnd)+1)
		feed(c, now, rtt)
		if now > 20*time.Second {
			min = minF2(min, c.cwnd)
			max = maxF2(max, c.cwnd)
		}
	}
	// Equilibrium target: ~BDP + 1/δ = 102 packets, oscillating a few
	// packets around it (velocity doubling makes excursions of ~5).
	if min < bdpPkts-2 || max > bdpPkts+25 {
		t.Errorf("steady cwnd range [%v, %v], want around %v..%v",
			min, max, bdpPkts, bdpPkts+10)
	}
	if max-min < 0.5 {
		t.Errorf("Copa should oscillate, range was [%v, %v]", min, max)
	}
}

func TestVelocityResetsOnDirectionChange(t *testing.T) {
	c := newSender(config{mss: 1500})
	c.cwnd, c.inSlowStart = 50, false
	feed(c, 0, 100*time.Millisecond)
	// Drive up for several RTTs (empty queue → below target).
	drive(c, time.Millisecond, 100*time.Millisecond, 8)
	velUp := c.velocity
	// Now drive hard down (big queue).
	drive(c, 2*time.Second, 300*time.Millisecond, 1)
	if c.velocity > velUp && velUp > 1 {
		t.Errorf("velocity %v did not reset after direction change (was %v)", c.velocity, velUp)
	}
}

func TestLossHalves(t *testing.T) {
	c := newSender(config{mss: 1500})
	c.cwnd, c.inSlowStart = 40, false
	c.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: true})
	if got := c.cwnd; got != 20 {
		t.Errorf("cwnd after loss = %v, want 20", got)
	}
}

func TestPoisonedMinRTTThrottles(t *testing.T) {
	// §5.1: a single 99ms sample against a true 100ms floor leaves Copa
	// perceiving ≥1ms of queueing forever, capping its rate at
	// 1/(δ·1ms) = 2000 pkt/s regardless of capacity.
	c := newSender(config{mss: 1500})
	c.cwnd, c.inSlowStart = 800, false
	feed(c, 0, 99*time.Millisecond) // poison
	drive(c, time.Millisecond, 100*time.Millisecond, 40)
	// cwnd should head toward 2000 pkt/s × 0.1s = 200 packets.
	if got := c.cwnd; got > 400 {
		t.Errorf("poisoned Copa cwnd = %v, want < 400 (throttled)", got)
	}
}

func minF2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
