package trace

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func mkSeries(pts ...float64) *Series {
	s := &Series{Name: "test"}
	for i, v := range pts {
		s.Add(time.Duration(i)*time.Second, v)
	}
	return s
}

func TestAtStepFunction(t *testing.T) {
	s := mkSeries(1, 2, 3) // samples at 0s, 1s, 2s
	cases := []struct {
		t    time.Duration
		want float64
	}{
		{-time.Second, -99}, // before first: default
		{0, 1},
		{500 * time.Millisecond, 1},
		{time.Second, 2},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 3},
		{time.Hour, 3}, // beyond last: constant extension
	}
	for _, c := range cases {
		if got := s.At(c.t, -99); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestAtEmpty(t *testing.T) {
	s := &Series{}
	if got := s.At(time.Second, 7); got != 7 {
		t.Errorf("At on empty series = %v, want default 7", got)
	}
}

func TestRangeHalfOpen(t *testing.T) {
	s := mkSeries(1, 2, 3, 4)
	pts := s.window(time.Second, 3*time.Second)
	if len(pts) != 2 || pts[0].V != 2 || pts[1].V != 3 {
		t.Errorf("Range[1s,3s) = %v, want values 2,3", pts)
	}
}

func TestMinMaxMean(t *testing.T) {
	s := mkSeries(5, 1, 3, 9, 7)
	min, max, ok := s.MinMax(0, 10*time.Second)
	if !ok || min != 1 || max != 9 {
		t.Errorf("MinMax = %v,%v,%v, want 1,9,true", min, max, ok)
	}
	mean, ok := s.Mean(0, 10*time.Second)
	if !ok || mean != 5 {
		t.Errorf("Mean = %v, want 5", mean)
	}
	if _, _, ok := s.MinMax(20*time.Second, 30*time.Second); ok {
		t.Error("MinMax on empty range reported ok")
	}
	if _, ok := s.Mean(20*time.Second, 30*time.Second); ok {
		t.Error("Mean on empty range reported ok")
	}
}

func TestShift(t *testing.T) {
	s := mkSeries(1, 2, 3, 4)
	sh := s.Shift(2 * time.Second)
	if len(sh.Points) != 2 {
		t.Fatalf("shifted length = %d, want 2", len(sh.Points))
	}
	if sh.Points[0].T != 0 || sh.Points[0].V != 3 {
		t.Errorf("shifted first point = %+v, want (0, 3)", sh.Points[0])
	}
	if sh.Points[1].T != time.Second || sh.Points[1].V != 4 {
		t.Errorf("shifted second point = %+v, want (1s, 4)", sh.Points[1])
	}
}

func TestWriteCSV(t *testing.T) {
	s := mkSeries(1.5, 2.5)
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.HasPrefix(got, "t_seconds,test\n") {
		t.Errorf("missing header: %q", got)
	}
	if !strings.Contains(got, "0.000000,1.5") || !strings.Contains(got, "1.000000,2.5") {
		t.Errorf("missing rows: %q", got)
	}
}

func TestWriteMultiCSV(t *testing.T) {
	a := mkSeries(1, 2)
	b := mkSeries(10, 20)
	b.Name = "b"
	var sb strings.Builder
	if err := WriteMultiCSV(&sb, 0, time.Second, time.Second, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3: %q", len(lines), sb.String())
	}
	if lines[0] != "t_seconds,test,b" {
		t.Errorf("header = %q", lines[0])
	}
}

func TestShiftPastLastSample(t *testing.T) {
	s := mkSeries(1, 2, 3) // samples at 0s, 1s, 2s
	sh := s.Shift(time.Hour)
	if len(sh.Points) != 0 {
		t.Errorf("shift past last sample kept %d points: %v", len(sh.Points), sh.Points)
	}
	if sh.Name != s.Name {
		t.Errorf("shifted name = %q, want %q", sh.Name, s.Name)
	}
	// Offset exactly on a sample keeps that sample at t=0.
	edge := s.Shift(2 * time.Second)
	if len(edge.Points) != 1 || edge.Points[0].T != 0 || edge.Points[0].V != 3 {
		t.Errorf("shift onto last sample = %v, want [(0, 3)]", edge.Points)
	}
}

func TestAtExactBoundary(t *testing.T) {
	s := mkSeries(1, 2) // samples at 0s, 1s
	// t exactly equal to a sample time takes that sample (step functions
	// are right-continuous: the sample takes effect at its own timestamp).
	if got := s.At(0, -1); got != 1 {
		t.Errorf("At(0) = %v, want 1", got)
	}
	if got := s.At(time.Second, -1); got != 2 {
		t.Errorf("At(1s) = %v, want 2", got)
	}
	// One nanosecond earlier still reads the previous step.
	if got := s.At(time.Second-time.Nanosecond, -1); got != 1 {
		t.Errorf("At(1s-1ns) = %v, want 1", got)
	}
}

func TestEmptySeriesStats(t *testing.T) {
	s := &Series{Name: "empty"}
	if _, _, ok := s.MinMax(0, time.Hour); ok {
		t.Error("MinMax on empty series reported ok")
	}
	if _, ok := s.Mean(0, time.Hour); ok {
		t.Error("Mean on empty series reported ok")
	}
	if got := len(s.Shift(time.Second).Points); got != 0 {
		t.Errorf("Shift on empty series has %d points", got)
	}
}

// A series whose first sample lies inside the grid must render leading
// empty cells, not literal NaN tokens (strict CSV parsers reject those).
func TestWriteMultiCSVMissingCells(t *testing.T) {
	late := &Series{Name: "late"}
	late.Add(2*time.Second, 7)
	full := mkSeries(1, 2, 3)
	var sb strings.Builder
	if err := WriteMultiCSV(&sb, 0, 2*time.Second, time.Second, full, late); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "NaN") {
		t.Errorf("output contains literal NaN: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	want := []string{
		"t_seconds,test,late",
		"0.000000,1,",
		"1.000000,2,",
		"2.000000,3,7",
	}
	if len(lines) != len(want) {
		t.Fatalf("lines = %d, want %d: %q", len(lines), len(want), out)
	}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("line %d = %q, want %q", i, lines[i], w)
		}
	}
}

func TestASCIIPlot(t *testing.T) {
	s := mkSeries(1, 5, 3, 9, 2)
	out := ASCIIPlot(s, 40, 8, "rtt")
	if !strings.Contains(out, "*") {
		t.Error("plot has no marks")
	}
	if !strings.Contains(out, "rtt") {
		t.Error("plot missing label")
	}
	if got := ASCIIPlot(&Series{}, 40, 8, "x"); got != "(no data)\n" {
		t.Errorf("empty plot = %q", got)
	}
}

// Property: At is consistent with the last sample at or before t.
func TestQuickAtConsistency(t *testing.T) {
	f := func(seed int64, probeMs uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &Series{}
		tt := time.Duration(0)
		for i := 0; i < 50; i++ {
			tt += time.Duration(rng.Intn(100)+1) * time.Millisecond
			s.Add(tt, rng.Float64())
		}
		probe := time.Duration(probeMs) * time.Millisecond
		got := s.At(probe, math.NaN())
		// Reference: linear scan.
		want := math.NaN()
		for _, p := range s.Points {
			if p.T <= probe {
				want = p.V
			}
		}
		if math.IsNaN(want) {
			return math.IsNaN(got)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: MinMax bounds every sample in range, and Mean lies between.
func TestQuickMinMaxMeanBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &Series{}
		for i := 0; i < 100; i++ {
			s.Add(time.Duration(i)*time.Millisecond, rng.NormFloat64())
		}
		min, max, ok1 := s.MinMax(10*time.Millisecond, 90*time.Millisecond)
		mean, ok2 := s.Mean(10*time.Millisecond, 90*time.Millisecond)
		if !ok1 || !ok2 {
			return false
		}
		if mean < min || mean > max {
			return false
		}
		for _, p := range s.window(10*time.Millisecond, 90*time.Millisecond) {
			if p.V < min || p.V > max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
