// Package trace records time series (RTT, sending rate, cwnd, queue depth)
// during emulation runs and provides the resampling, range statistics, and
// CSV export that the figure-regeneration harness needs.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// Point is one sample of a time series.
type Point struct {
	T time.Duration
	V float64
}

// Series is a time-ordered sequence of samples.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample; samples must be added in non-decreasing time order.
func (s *Series) Add(t time.Duration, v float64) {
	s.Points = append(s.Points, Point{t, v})
}

// Reset discards all samples while keeping the buffer capacity, so a
// reused series records the next run without reallocating. The name is
// kept; callers renaming a recycled series assign Name directly.
func (s *Series) Reset() {
	s.Points = s.Points[:0]
}

// Clone returns an independent copy of the series. Run contexts that
// recycle their trace buffers (network.Session) clone each series into the
// returned Result so a later run cannot clobber an earlier result's data.
func (s *Series) Clone() *Series {
	out := &Series{Name: s.Name}
	if len(s.Points) > 0 {
		out.Points = append(make([]Point, 0, len(s.Points)), s.Points...)
	}
	return out
}

// Reserve grows the sample buffer to hold at least n points, so a caller
// that knows its sample count up front (horizon / sampling interval) pays
// one allocation instead of log₂(n) append regrowths.
func (s *Series) Reserve(n int) {
	if n <= cap(s.Points) {
		return
	}
	pts := make([]Point, len(s.Points), n)
	copy(pts, s.Points)
	s.Points = pts
}

// At returns the value in effect at time t (the last sample at or before
// t), or def when t precedes all samples. Series are treated as step
// functions, matching how a recorded delay trajectory is replayed.
func (s *Series) At(t time.Duration, def float64) float64 {
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t })
	if i == 0 {
		return def
	}
	return s.Points[i-1].V
}

// window returns the samples with T in [from, to).
func (s *Series) window(from, to time.Duration) []Point {
	lo := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T >= from })
	hi := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T >= to })
	return s.Points[lo:hi]
}

// MinMax returns the extrema of the samples in [from, to). ok is false when
// the range holds no samples.
func (s *Series) MinMax(from, to time.Duration) (min, max float64, ok bool) {
	pts := s.window(from, to)
	if len(pts) == 0 {
		return 0, 0, false
	}
	min, max = pts[0].V, pts[0].V
	for _, p := range pts[1:] {
		if p.V < min {
			min = p.V
		}
		if p.V > max {
			max = p.V
		}
	}
	return min, max, true
}

// Mean returns the arithmetic mean of samples in [from, to); ok is false
// when the range is empty.
func (s *Series) Mean(from, to time.Duration) (mean float64, ok bool) {
	pts := s.window(from, to)
	if len(pts) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, p := range pts {
		sum += p.V
	}
	return sum / float64(len(pts)), true
}

// Shift returns a copy with all timestamps shifted by -offset (samples
// before offset are dropped). Used to re-origin a trajectory at its
// convergence time, the d̄(t) = d(t+T) of the Theorem 1 proof.
func (s *Series) Shift(offset time.Duration) *Series {
	out := &Series{Name: s.Name}
	out.Reserve(len(s.Points))
	for _, p := range s.Points {
		if p.T < offset {
			continue
		}
		out.Add(p.T-offset, p.V)
	}
	return out
}

// WriteCSV writes "seconds,value" rows.
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "t_seconds,%s\n", s.Name); err != nil {
		return err
	}
	for _, p := range s.Points {
		if _, err := fmt.Fprintf(w, "%.6f,%.6g\n", p.T.Seconds(), p.V); err != nil {
			return err
		}
	}
	return nil
}

// WriteMultiCSV writes several series resampled onto a shared grid as one
// CSV table with a t_seconds column. Grid points a series has no sample
// for yet (before its first point) are written as empty cells, which CSV
// consumers read as missing data — a literal NaN token breaks several
// strict parsers.
func WriteMultiCSV(w io.Writer, start, end, step time.Duration, series ...*Series) error {
	if _, err := fmt.Fprint(w, "t_seconds"); err != nil {
		return err
	}
	for _, s := range series {
		if _, err := fmt.Fprintf(w, ",%s", s.Name); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for t := start; t <= end; t += step {
		if _, err := fmt.Fprintf(w, "%.6f", t.Seconds()); err != nil {
			return err
		}
		for _, s := range series {
			v := s.At(t, math.NaN())
			if math.IsNaN(v) {
				if _, err := fmt.Fprint(w, ","); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, ",%.6g", v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
