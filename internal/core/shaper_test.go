package core

import (
	"testing"
	"time"

	"starvation/internal/trace"
)

func targetSeries(vals map[time.Duration]float64) *trace.Series {
	s := &trace.Series{}
	// Points must be added in time order.
	var ts []time.Duration
	for t := range vals {
		ts = append(ts, t)
	}
	for i := 0; i < len(ts); i++ {
		for j := i + 1; j < len(ts); j++ {
			if ts[j] < ts[i] {
				ts[i], ts[j] = ts[j], ts[i]
			}
		}
	}
	for _, t := range ts {
		s.Add(t, vals[t])
	}
	return s
}

func TestShaperHitsTargetExactly(t *testing.T) {
	sh := &RTTShaper{
		Target: targetSeries(map[time.Duration]float64{0: 0.100}),
		D:      20 * time.Millisecond,
	}
	// A packet sent at 1s that has accumulated 90ms needs 10ms more.
	got := sh.DelayPacket(1*time.Second+90*time.Millisecond, 1*time.Second, 0)
	if got != 10*time.Millisecond {
		t.Errorf("delay = %v, want 10ms", got)
	}
	if sh.ClampedLow != 0 || sh.ClampedHigh != 0 {
		t.Error("in-range delay counted as clamp")
	}
}

func TestShaperClampsLow(t *testing.T) {
	sh := &RTTShaper{
		Target: targetSeries(map[time.Duration]float64{0: 0.100}),
		D:      20 * time.Millisecond,
	}
	// Accumulated 120ms > target 100ms: cannot subtract delay.
	got := sh.DelayPacket(1*time.Second+120*time.Millisecond, 1*time.Second, 0)
	if got != 0 {
		t.Errorf("delay = %v, want clamp to 0", got)
	}
	if sh.ClampedLow != 1 {
		t.Errorf("ClampedLow = %d, want 1", sh.ClampedLow)
	}
	if sh.MaxNegative != 20*time.Millisecond {
		t.Errorf("MaxNegative = %v, want 20ms", sh.MaxNegative)
	}
}

func TestShaperClampsHigh(t *testing.T) {
	sh := &RTTShaper{
		Target: targetSeries(map[time.Duration]float64{0: 0.100}),
		D:      20 * time.Millisecond,
	}
	// Accumulated 50ms: needs 50ms > D.
	got := sh.DelayPacket(1*time.Second+50*time.Millisecond, 1*time.Second, 0)
	if got != 20*time.Millisecond {
		t.Errorf("delay = %v, want clamp to D", got)
	}
	if sh.ClampedHigh != 1 || sh.MaxShortfall != 30*time.Millisecond {
		t.Errorf("high-clamp stats: %d, %v", sh.ClampedHigh, sh.MaxShortfall)
	}
}

func TestShaperSkipUntilSuppressesStats(t *testing.T) {
	sh := &RTTShaper{
		Target:    targetSeries(map[time.Duration]float64{0: 0.100}),
		D:         20 * time.Millisecond,
		SkipUntil: 2 * time.Second,
	}
	sh.DelayPacket(1*time.Second+120*time.Millisecond, 1*time.Second, 0)
	if sh.ClampedLow != 0 {
		t.Error("clamp during SkipUntil counted")
	}
	sh.DelayPacket(3*time.Second+120*time.Millisecond, 3*time.Second, 0)
	if sh.ClampedLow != 1 {
		t.Error("clamp after SkipUntil not counted")
	}
	if sh.violationFraction() != 0.5 {
		t.Errorf("violation fraction = %v, want 0.5 (1 of 2 applied)", sh.violationFraction())
	}
}

func TestShaperTargetIndexedBySendTime(t *testing.T) {
	sh := &RTTShaper{
		Target: targetSeries(map[time.Duration]float64{
			0:               0.100,
			5 * time.Second: 0.200,
		}),
		D: time.Second,
	}
	// Sent before the step: target 100ms.
	if got := sh.DelayPacket(4*time.Second+50*time.Millisecond, 4*time.Second, 0); got != 50*time.Millisecond {
		t.Errorf("pre-step delay = %v, want 50ms", got)
	}
	// Sent after the step: target 200ms, even if it arrives at the box at
	// the same wall time as the previous packet would have.
	if got := sh.DelayPacket(6*time.Second+50*time.Millisecond, 6*time.Second, 0); got != 150*time.Millisecond {
		t.Errorf("post-step delay = %v, want 150ms", got)
	}
}

func TestShaperBound(t *testing.T) {
	sh := &RTTShaper{Target: targetSeries(map[time.Duration]float64{0: 0.1}), D: 7 * time.Millisecond}
	if sh.Bound() != 7*time.Millisecond {
		t.Error("Bound mismatch")
	}
}
