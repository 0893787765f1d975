package core

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"starvation/internal/cca"
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
	conv := MeasureConvergence("vegas", units.Mbps(12), 100*time.Millisecond, MeasureOpts{Duration: 15 * time.Second})
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

// cancelledAfterFirstCheck is a context whose first Err reads nil and
// every later one context.Canceled: a sweep's check before its first point
// passes, and everything after it sees the cancellation.
type cancelledAfterFirstCheck struct {
	context.Context
	checked bool
}

func (c *cancelledAfterFirstCheck) Err() error {
	if !c.checked {
		c.checked = true
		return nil
	}
	return context.Canceled
}

// TestRateDelaySweepStopsOnCancel pins that a cancelled context ends the
// sweep before the next rate point: the point in flight halts at the next
// run tick, no later point is measured, and a sweep started under an
// already-cancelled context measures nothing.
func TestRateDelaySweepStopsOnCancel(t *testing.T) {
	rates := []units.Rate{units.Mbps(4), units.Mbps(8), units.Mbps(16)}
	started := func(sw *Sweep) (n int) {
		for _, p := range sw.Points {
			if p != (SweepPoint{}) {
				n++
			}
		}
		return n
	}
	ctx := &cancelledAfterFirstCheck{Context: context.Background()}
	opts := MeasureOpts{Duration: 5 * time.Second, Ctx: ctx}
	sw := RateDelaySweep("vegas", 50*time.Millisecond, rates, opts)
	if len(sw.Points) != len(rates) {
		t.Fatalf("%d points, want %d", len(sw.Points), len(rates))
	}
	if sw.Points[0].C != rates[0] || started(sw) != 1 {
		t.Errorf("cancelled during the first point: points %+v, want the first one only", sw.Points)
	}
	if n := started(RateDelaySweep("vegas", 50*time.Millisecond, rates, opts)); n != 0 {
		t.Errorf("already-cancelled sweep started %d points, want 0", n)
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

// TestUnknownCCAPanics pins that every entry point taking a registry name
// refuses an unregistered one before it simulates anything, with a panic
// that lists the registered names.
func TestUnknownCCAPanics(t *testing.T) {
	const bad = "no-such-cca"
	rm, c := 50*time.Millisecond, units.Mbps(12)
	opts := MeasureOpts{Duration: time.Second}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"MeasureConvergence", func() { MeasureConvergence(bad, c, rm, opts) }},
		{"RateDelaySweep", func() { RateDelaySweep(bad, rm, []units.Rate{c}, opts) }},
		{"PigeonholeSearch", func() { PigeonholeSearch(bad, rm, 4, 0.8, time.Millisecond, c, 2, opts) }},
		{"EmulateTwoFlow", func() {
			EmulateTwoFlow(EmulationSpec{CCA: bad, Rm: rm, C1: c, C2: 2 * c, D: time.Millisecond, Measure: opts})
		}},
		{"UnderutilizationConstruction", func() {
			UnderutilizationConstruction(UnderutilizationSpec{CCA: bad, Rm: rm, C: c, Measure: opts})
		}},
		{"StrongModelConstruction", func() {
			StrongModelConstruction(StrongModelSpec{CCA: bad, Rm: rm, Lambda: c, D: time.Millisecond, Measure: opts})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, strconv.Quote(bad)) {
					t.Fatalf("panic %q, want one naming %q", msg, bad)
				}
				for _, name := range cca.Names() {
					if !strings.Contains(msg, name) {
						t.Errorf("panic %q does not list registered CCA %q", msg, name)
					}
				}
			}()
			tc.run()
		})
	}
}
