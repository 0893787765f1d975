package sim

import (
	"testing"
	"time"
)

// BenchmarkScheduleAndFire measures raw event-loop throughput: one
// schedule + one dispatch per operation.
func BenchmarkScheduleAndFire(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, func() {})
		s.Step()
	}
}

// BenchmarkDeepQueue measures heap behaviour with many pending events.
func BenchmarkDeepQueue(b *testing.B) {
	s := New(1)
	const depth = 10000
	for i := 0; i < depth; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() {})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.At(time.Duration(depth+i)*time.Millisecond, func() {})
		s.Step()
	}
}

// BenchmarkSelfScheduling measures the common element pattern: each event
// schedules its successor (timers, pacing wheels).
func BenchmarkSelfScheduling(b *testing.B) {
	s := New(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			s.After(100*time.Microsecond, tick)
		}
	}
	b.ReportAllocs()
	s.After(0, tick)
	s.Run(time.Duration(b.N+1) * time.Millisecond)
	if n < b.N {
		b.Fatalf("ticked %d, want %d", n, b.N)
	}
}

// BenchmarkHoldModel is the classic hold model on the event mix measured
// at pop_500's schedule call sites (BENCH.md, "Event queue"): ~2 000
// events stay live, and each one fired schedules its successor — 48 % a
// pacing wake 16–64 µs ahead (one in seven up to a few ms), 20 % a
// zero-delay hand-off between elements, 20 % a link departure or
// propagation hop 16–65 ms ahead, 12 % an RTO-like timer at 200 ms–1 s
// that is cancelled and re-armed while still pending. The three
// benchmarks above hold one event, or 10 000 spaced 1 ms apart, and never
// cancel; this is the one that loads both queue tiers the way a many-flow
// run does.
func BenchmarkHoldModel(b *testing.B) {
	const live, timers = 2000, 250
	s := New(1)
	x := uint64(88172645463325252) // xorshift64: the mix must not cost more than the queue
	var rto [timers]Handle
	var tick func()
	schedule := func() {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r := x >> 16
		hop := 16*time.Millisecond + time.Duration(r>>8&0xffff)*750
		switch p := r >> 24 % 100; {
		case p < 41:
			s.After(16*time.Microsecond+time.Duration(r&0xffff)*3/4, tick)
		case p < 48:
			s.After(64*time.Microsecond<<(r&7)+time.Duration(r>>8&0xffff), tick)
		case p < 68:
			s.After(0, tick)
		case p < 88:
			s.After(hop, tick)
		default:
			timer := &rto[r>>32%timers]
			if timer.Pending() {
				timer.Cancel()
				s.After(hop, tick)
			}
			*timer = s.After(200*time.Millisecond+time.Duration(r>>40%800)*time.Millisecond, tick)
		}
	}
	tick = schedule
	for i := 0; i < live; i++ {
		schedule()
	}
	s.Run(2 * time.Second) // past the start-up transient: the timers are spread out
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	if s.Pending() != live {
		b.Fatalf("%d events live, want %d held", s.Pending(), live)
	}
}
