package core

import (
	"context"
	"testing"
	"time"

	"starvation/internal/cca"
	"starvation/internal/cca/vegas"
	"starvation/internal/trace"
	"starvation/internal/units"
)

func TestEstimateConvergenceTime(t *testing.T) {
	s := &trace.Series{}
	// Transient: samples outside the band until 3s, then inside.
	s.Add(0, 0.200)
	s.Add(1*time.Second, 0.150)
	s.Add(3*time.Second, 0.120)
	s.Add(4*time.Second, 0.101)
	s.Add(5*time.Second, 0.102)
	s.Add(6*time.Second, 0.100)
	got := estimateConvergenceTime(s, 100*time.Millisecond, 102*time.Millisecond)
	if got != 3*time.Second {
		t.Errorf("ConvergedAt = %v, want 3s (last out-of-band sample)", got)
	}
}

func TestEstimateConvergenceTimeImmediate(t *testing.T) {
	s := &trace.Series{}
	s.Add(0, 0.101)
	s.Add(time.Second, 0.102)
	got := estimateConvergenceTime(s, 100*time.Millisecond, 102*time.Millisecond)
	if got != 0 {
		t.Errorf("ConvergedAt = %v, want 0 (never left the band)", got)
	}
}

func TestMeasureOptsDefaults(t *testing.T) {
	var o MeasureOpts
	o.fill()
	if o.Duration != 60*time.Second {
		t.Errorf("defaults = %+v", o)
	}
}

func TestConvergenceCapturesFinalState(t *testing.T) {
	conv := MeasureConvergence(func() cca.Algorithm {
		return vegas.New(vegas.Config{})
	}, units.Mbps(12), 100*time.Millisecond, MeasureOpts{Duration: 15 * time.Second})
	// Vegas at 12 Mbit/s × ~104ms: ~104 packets plus the α backlog.
	if conv.FinalCwndPkts < 95 || conv.FinalCwndPkts > 115 {
		t.Errorf("FinalCwndPkts = %v, want ~104", conv.FinalCwndPkts)
	}
	if conv.SteadyMeanRTT < conv.DMin || conv.SteadyMeanRTT > conv.DMax {
		t.Errorf("mean %v outside [dmin %v, dmax %v]", conv.SteadyMeanRTT, conv.DMin, conv.DMax)
	}
	if conv.efficiency() < 0.95 || conv.efficiency() > 1.05 {
		t.Errorf("efficiency = %v", conv.efficiency())
	}
	if len(conv.RTT.Points) == 0 || len(conv.Rate.Points) == 0 {
		t.Error("trajectories not recorded")
	}
}

// TestRateDelaySweepStopsOnCancel pins that a cancelled context ends the
// sweep before the next rate point: the point in flight halts at the next
// run tick, no later point is measured, and a sweep started under an
// already-cancelled context measures nothing.
func TestRateDelaySweepStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rates := []units.Rate{units.Mbps(4), units.Mbps(8), units.Mbps(16)}
	built := 0
	mk := func() cca.Algorithm {
		built++
		cancel() // the first point's run sees the cancellation
		return vegas.New(vegas.Config{})
	}
	opts := MeasureOpts{Duration: 5 * time.Second, Ctx: ctx}
	sw := RateDelaySweep("vegas", mk, 50*time.Millisecond, rates, opts)
	if built != 1 {
		t.Errorf("cancelled during the first point: %d points started, want 1", built)
	}
	if len(sw.Points) != len(rates) {
		t.Fatalf("%d points, want %d", len(sw.Points), len(rates))
	}
	for i, p := range sw.Points[1:] {
		if p != (SweepPoint{}) {
			t.Errorf("point %d measured after cancellation: %+v", i+1, p)
		}
	}
	built = 0
	RateDelaySweep("vegas", mk, 50*time.Millisecond, rates, opts)
	if built != 0 {
		t.Errorf("already-cancelled sweep started %d points, want 0", built)
	}
}

func TestSweepCSV(t *testing.T) {
	sw := &Sweep{Name: "x", Rm: 100 * time.Millisecond}
	sw.Points = append(sw.Points, SweepPoint{
		C: units.Mbps(10), DMin: 100 * time.Millisecond,
		DMax: 105 * time.Millisecond, Delta: 5 * time.Millisecond, Efficiency: 0.99,
		PredLo: 100 * time.Millisecond, PredHi: 102500 * time.Microsecond,
	}, SweepPoint{C: units.Mbps(20), DMin: 100 * time.Millisecond, DMax: 100 * time.Millisecond})
	var b writerBuffer
	if err := sw.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "rate_mbps,dmin_ms,dmax_ms,delta_ms,efficiency,pred_dmin_ms,pred_dmax_ms\n" +
		"10,100.0000,105.0000,5.0000,0.9900,100.0000,102.5000\n" +
		"20,100.0000,100.0000,0.0000,0.0000,,\n"
	if string(b) != want {
		t.Errorf("CSV = %q, want %q", string(b), want)
	}
}

type writerBuffer []byte

func (w *writerBuffer) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}
