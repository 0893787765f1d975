package trace

import (
	"bytes"
	"testing"
	"time"
)

// TestSeriesResetIndistinguishableFromFresh pins the reuse contract: a
// series that recorded a run and was Reset records the next run into the
// same buffer with output byte-identical to a fresh series.
func TestSeriesResetIndistinguishableFromFresh(t *testing.T) {
	record := func(s *Series) {
		for i := 0; i < 50; i++ {
			s.Add(time.Duration(i)*time.Millisecond, float64(i)*1.5)
		}
	}
	csv := func(s *Series) string {
		var buf bytes.Buffer
		if err := s.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	fresh := &Series{Name: "x"}
	record(fresh)

	reused := &Series{Name: "old_name"}
	for i := 0; i < 200; i++ { // grow past the fresh run's length
		reused.Add(time.Duration(i)*time.Second, 9e9)
	}
	capBefore := cap(reused.Points)
	reused.Reset()
	reused.Name = "x"
	record(reused)

	if got, want := csv(reused), csv(fresh); got != want {
		t.Errorf("reset series CSV differs from fresh:\n got %q\nwant %q", got, want)
	}
	if len(reused.Points) != len(fresh.Points) {
		t.Errorf("len %d != %d", len(reused.Points), len(fresh.Points))
	}
	if cap(reused.Points) != capBefore {
		t.Errorf("Reset reallocated: cap %d -> %d", capBefore, cap(reused.Points))
	}
	gotMin, gotMax, _ := reused.MinMax(0, time.Second)
	wantMin, wantMax, _ := fresh.MinMax(0, time.Second)
	if gotMin != wantMin || gotMax != wantMax {
		t.Errorf("MinMax (%g,%g) != (%g,%g)", gotMin, gotMax, wantMin, wantMax)
	}
}

// TestSeriesCloneDetaches pins that a clone shares nothing with its source:
// mutating the source after cloning (as a recycled run buffer will be) must
// not change the clone.
func TestSeriesCloneDetaches(t *testing.T) {
	src := &Series{Name: "q"}
	src.Add(time.Millisecond, 1)
	src.Add(2*time.Millisecond, 2)
	c := src.Clone()

	src.Points[0].V = 99
	src.Reset()
	src.Add(time.Millisecond, -1)

	if c.Name != "q" || len(c.Points) != 2 || c.Points[0].V != 1 || c.Points[1].V != 2 {
		t.Errorf("clone mutated by source: %+v", c)
	}
	empty := (&Series{Name: "e"}).Clone()
	if empty.Name != "e" || len(empty.Points) != 0 {
		t.Errorf("empty clone: %+v", empty)
	}
}
