package cubic

import (
	"testing"
	"time"

	"starvation/internal/cca"
)

func ack(now time.Duration, bytes int) cca.AckSignal {
	return cca.AckSignal{Now: now, RTT: 100 * time.Millisecond, AckedBytes: bytes, Packets: 1}
}

func TestSlowStartGrowth(t *testing.T) {
	c := newSender(config{mss: 1500})
	w0 := c.cwnd
	for i := 0; i < 10; i++ {
		c.OnAck(ack(time.Duration(i)*10*time.Millisecond, 1500))
	}
	if got := c.cwnd; got != w0+10 {
		t.Errorf("slow start growth = %v, want %v", got, w0+10)
	}
}

func TestLossDecreaseByBeta(t *testing.T) {
	c := newSender(config{mss: 1500})
	c.cwnd = 100
	c.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: true})
	if got := c.cwnd; got != 70 {
		t.Errorf("cwnd after loss = %v, want 70 (β=0.7)", got)
	}
}

func TestCubicConcaveRecovery(t *testing.T) {
	// After a decrease, growth follows the cubic: fast at first, slowing
	// toward wMax, then accelerating past it.
	c := newSender(config{mss: 1500, noRenoFloor: true})
	c.cwnd = 100
	c.OnAck(ack(0, 1500))
	c.OnLoss(cca.LossSignal{Now: time.Millisecond, Bytes: 1500, NewEvent: true})

	now := time.Millisecond
	var at80, atWmax time.Duration
	for i := 0; i < 100000 && atWmax == 0; i++ {
		now += time.Millisecond
		c.OnAck(ack(now, 1500))
		if at80 == 0 && c.cwnd >= 80 {
			at80 = now
		}
		if c.cwnd >= 100 {
			atWmax = now
		}
	}
	if atWmax == 0 {
		t.Fatal("never recovered to wMax")
	}
	// Concavity: the first stretch (70→80) is much faster than the last
	// approach (80→100 includes the plateau at K).
	if at80*2 > atWmax {
		t.Errorf("no concave plateau: 70→80 took %v, 70→100 took %v", at80, atWmax)
	}
}

func TestFastConvergence(t *testing.T) {
	c := newSender(config{mss: 1500})
	c.cwnd = 100
	c.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: true}) // wMax=100, cwnd=70
	// Second loss below the previous wMax triggers the reduced wMax.
	c.OnLoss(cca.LossSignal{Now: 3 * time.Second, Bytes: 1500, NewEvent: true})
	// wMax should now be 70·(2−β)/2 = 45.5, not 70.
	if got := c.wMax; got != 70*(2-0.7)/2 {
		t.Errorf("fast-convergence wMax = %v, want %v", got, 70*(2-0.7)/2)
	}
}

func TestTimeoutReset(t *testing.T) {
	c := newSender(config{mss: 1500})
	c.cwnd = 100
	c.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: true, Timeout: true})
	if got := c.cwnd; got != 1 {
		t.Errorf("cwnd after timeout = %v, want 1", got)
	}
}

func TestSameEpochLossIgnored(t *testing.T) {
	c := newSender(config{mss: 1500})
	c.cwnd = 100
	c.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: true})
	w := c.cwnd
	c.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: false})
	if c.cwnd != w {
		t.Error("non-new-event loss reduced cwnd")
	}
}

func TestTCPFriendlyFloor(t *testing.T) {
	// At small windows and large time scales the Reno-tracking floor
	// dominates the cubic term.
	c := newSender(config{mss: 1500})
	c.cwnd = 20
	c.OnAck(ack(0, 1500))
	c.OnLoss(cca.LossSignal{Now: time.Millisecond, Bytes: 1500, NewEvent: true})
	now := time.Millisecond
	for i := 0; i < 3000; i++ {
		now += 10 * time.Millisecond
		c.OnAck(ack(now, 1500))
	}
	noFloor := newSender(config{mss: 1500, noRenoFloor: true})
	noFloor.cwnd = 20
	noFloor.OnAck(ack(0, 1500))
	noFloor.OnLoss(cca.LossSignal{Now: time.Millisecond, Bytes: 1500, NewEvent: true})
	now = time.Millisecond
	for i := 0; i < 3000; i++ {
		now += 10 * time.Millisecond
		noFloor.OnAck(ack(now, 1500))
	}
	if c.cwnd < noFloor.cwnd {
		t.Errorf("TCP-friendly cwnd (%v) below plain cubic (%v)", c.cwnd, noFloor.cwnd)
	}
}

func TestWindowBytes(t *testing.T) {
	c := newSender(config{mss: 1500})
	if got := c.Window(); got != 15000 {
		t.Errorf("Window = %d bytes, want 15000", got)
	}
	if c.PacingRate() != 0 {
		t.Error("Cubic must be ACK-clocked")
	}
}
