package cca

import "time"

// WindowedMin tracks the minimum of a time series over a sliding window,
// the filter LEDBAT and Copa apply to RTTs. It keeps a monotonic deque so
// both Update and Get are amortized O(1).
type WindowedMin struct {
	Window time.Duration
	q      []sample // increasing values
}

// WindowedMax tracks the maximum over a sliding window, the filter BBR
// applies to delivery-rate samples and Verus applies to RTTs.
type WindowedMax struct {
	Window time.Duration
	q      []sample // decreasing values
}

type sample struct {
	t time.Duration
	v float64
}

// Update inserts a sample observed at time t.
func (f *WindowedMin) Update(t time.Duration, v float64) {
	for len(f.q) > 0 && f.q[len(f.q)-1].v >= v {
		f.q = f.q[:len(f.q)-1]
	}
	f.q = append(f.q, sample{t, v})
	f.expire(t)
}

// Get returns the windowed minimum, or def when no samples are live.
func (f *WindowedMin) Get(def float64) float64 {
	if len(f.q) == 0 {
		return def
	}
	return f.q[0].v
}

func (f *WindowedMin) expire(now time.Duration) {
	for len(f.q) > 0 && now-f.q[0].t > f.Window {
		f.q = f.q[1:]
	}
}

// Update inserts a sample observed at time t.
func (f *WindowedMax) Update(t time.Duration, v float64) {
	for len(f.q) > 0 && f.q[len(f.q)-1].v <= v {
		f.q = f.q[:len(f.q)-1]
	}
	f.q = append(f.q, sample{t, v})
	f.expire(t)
}

// Get returns the windowed maximum, or def when no samples are live.
func (f *WindowedMax) Get(def float64) float64 {
	if len(f.q) == 0 {
		return def
	}
	return f.q[0].v
}

func (f *WindowedMax) expire(now time.Duration) {
	for len(f.q) > 0 && now-f.q[0].t > f.Window {
		f.q = f.q[1:]
	}
}

// MinRTT tracks the smallest RTT ever observed (the classic baseRTT of
// Vegas/FAST) along with the time it was seen.
type MinRTT struct {
	rtt time.Duration
	at  time.Duration
	set bool
}

// Update folds in a sample.
func (m *MinRTT) Update(t, rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if !m.set || rtt < m.rtt {
		m.rtt, m.at, m.set = rtt, t, true
	}
}

// Get returns the lifetime minimum, or def before any sample.
func (m *MinRTT) Get(def time.Duration) time.Duration {
	if !m.set {
		return def
	}
	return m.rtt
}

// EWMA is an exponentially weighted moving average with gain Alpha in
// (0, 1]: avg ← (1−Alpha)·avg + Alpha·sample.
type EWMA struct {
	Alpha float64
	v     float64
	set   bool
}

// Update folds in a sample and returns the new average.
func (e *EWMA) Update(v float64) float64 {
	if !e.set {
		e.v, e.set = v, true
		return v
	}
	e.v = (1-e.Alpha)*e.v + e.Alpha*v
	return e.v
}

// Get returns the current average, or def before any sample.
func (e *EWMA) Get(def float64) float64 {
	if !e.set {
		return def
	}
	return e.v
}
