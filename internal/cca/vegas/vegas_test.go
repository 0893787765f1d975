package vegas

import (
	"testing"
	"time"

	"starvation/internal/cca"
)

// drive feeds v acks with the given constant RTT for n simulated RTT
// epochs, starting at time start.
func drive(v *Vegas, start time.Duration, rtt time.Duration, epochs int) time.Duration {
	now := start
	for e := 0; e < epochs; e++ {
		acks := int(v.cwnd)
		if acks < 1 {
			acks = 1
		}
		per := rtt / time.Duration(acks)
		for i := 0; i < acks; i++ {
			now += per
			v.OnAck(cca.AckSignal{Now: now, RTT: rtt, AckedBytes: v.cfg.MSS,
				DeliveredBytes: v.cfg.MSS, Packets: 1})
		}
	}
	return now
}

func TestHoldsInsideBand(t *testing.T) {
	// With the queueing occupancy between Alpha and Beta packets, Vegas
	// holds the window.
	v := New(Config{MSS: 1500})
	v.Restart(100*time.Millisecond, 50)
	// diff = w(rtt-base)/rtt = 4 packets when rtt = base·w/(w-4).
	base := 100 * time.Millisecond
	rtt := time.Duration(float64(base) * 50.0 / 46.0)
	drive(v, 0, rtt, 10)
	if got := v.cwnd; got != 50 {
		t.Errorf("cwnd moved inside the band: %v, want 50", got)
	}
}

func TestIncreasesBelowAlpha(t *testing.T) {
	v := New(Config{MSS: 1500})
	v.Restart(100*time.Millisecond, 50)
	// diff ≈ 1 packet: below alpha=3, Vegas adds one packet per RTT.
	base := 100 * time.Millisecond
	rtt := time.Duration(float64(base) * 50.0 / 49.0)
	drive(v, 0, rtt, 5)
	got := v.cwnd
	if got < 52 || got > 56 {
		t.Errorf("cwnd after 5 low-queue RTTs = %v, want ~54-55", got)
	}
}

func TestDecreasesAboveBeta(t *testing.T) {
	v := New(Config{MSS: 1500})
	v.Restart(100*time.Millisecond, 50)
	// diff ≈ 7 packets: above beta=5, Vegas removes one packet per RTT.
	base := 100 * time.Millisecond
	rtt := time.Duration(float64(base) * 50.0 / 43.0)
	drive(v, 0, rtt, 5)
	got := v.cwnd
	if got < 44 || got > 48 {
		t.Errorf("cwnd after 5 high-queue RTTs = %v, want ~45-46", got)
	}
}

func TestGrossOverloadSnapsToBDP(t *testing.T) {
	v := New(Config{MSS: 1500})
	v.Restart(100*time.Millisecond, 1000)
	// RTT double the base: 500 packets queued, far beyond 2β. Two epochs
	// produce exactly one evaluation (the first only arms the epoch).
	drive(v, 0, 200*time.Millisecond, 2)
	got := v.cwnd
	// Snap target: w·base/rtt + α = 1000/2 + 3 = 503.
	if got < 450 || got > 560 {
		t.Errorf("cwnd after overload snap = %v, want ~503", got)
	}
}

func TestMinRTTPoisoningThrottles(t *testing.T) {
	// The §5.1 failure mode distilled: a baseRTT estimate 1ms below the
	// true floor makes Vegas see phantom queueing and throttle.
	v := New(Config{MSS: 1500})
	v.cwnd, v.inSlowStart = 800, false // ~ full rate at 100ms on a 96 Mbit/s path
	// One poisoned sample below every later observation:
	v.OnAck(cca.AckSignal{Now: time.Millisecond, RTT: 99 * time.Millisecond, AckedBytes: 1500})
	// True floor is 100 ms; with 800 packets at 96 Mbit/s queueing is
	// negligible, so the observed RTT sits at ~100ms while the estimator
	// believes 99ms: diff = 800·1/100 = 8 > β → persistent decrease.
	before := v.cwnd
	drive(v, time.Millisecond, 100*time.Millisecond, 30)
	if got := v.cwnd; got >= before {
		t.Errorf("poisoned Vegas did not throttle: %v -> %v", before, got)
	}
}

func TestLossHalves(t *testing.T) {
	v := New(Config{MSS: 1500})
	v.cwnd = 40
	v.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: true})
	if got := v.cwnd; got != 20 {
		t.Errorf("cwnd after loss = %v, want 20", got)
	}
	v.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: false})
	if got := v.cwnd; got != 20 {
		t.Errorf("same-epoch loss reduced again: %v", got)
	}
}

func TestSlowStartExitDeflates(t *testing.T) {
	v := New(Config{MSS: 1500})
	v.rm = 100 * time.Millisecond
	if !v.inSlowStart {
		t.Fatal("fresh Vegas should be in slow start")
	}
	v.cwnd = 64
	// High queueing sample (diff = 64·50/150 = 21 ≫ γ): exit + deflate.
	drive(v, 0, 150*time.Millisecond, 2)
	if v.inSlowStart {
		t.Error("did not exit slow start despite queueing")
	}
	// Deflation: w·base/rtt + α = 64·100/150 + 3 ≈ 45.7.
	if got := v.cwnd; got < 40 || got > 50 {
		t.Errorf("deflated cwnd = %v, want ~46", got)
	}
}

func TestBaseRTTLearning(t *testing.T) {
	v := New(Config{MSS: 1500})
	v.OnAck(cca.AckSignal{Now: 0, RTT: 120 * time.Millisecond, AckedBytes: 1500})
	v.OnAck(cca.AckSignal{Now: time.Millisecond, RTT: 100 * time.Millisecond, AckedBytes: 1500})
	v.OnAck(cca.AckSignal{Now: 2 * time.Millisecond, RTT: 110 * time.Millisecond, AckedBytes: 1500})
	if got := v.baseRTT(); got != 100*time.Millisecond {
		t.Errorf("BaseRTT = %v, want lifetime min 100ms", got)
	}
}

func TestOracularBaseRTTPinned(t *testing.T) {
	v := New(Config{MSS: 1500})
	v.Restart(100*time.Millisecond, initialCwndPkts)
	v.OnAck(cca.AckSignal{Now: 0, RTT: 50 * time.Millisecond, AckedBytes: 1500})
	if got := v.baseRTT(); got != 100*time.Millisecond {
		t.Errorf("pinned BaseRTT moved: %v", got)
	}
}
