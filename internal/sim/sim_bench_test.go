package sim

import (
	"testing"
	"time"
	"unsafe"
)

// The event loop's hot-path workloads. Each constructor builds a simulator
// in its steady state and returns one operation, which reports the events
// still pending afterwards. TestHotPathBudget holds every operation to zero
// allocations and an unchanged pending count; the Benchmark of the same
// name times the same operation for profiling by hand.

// scheduleAndFire is raw event-loop throughput: one schedule + one
// dispatch per operation on an otherwise empty queue.
func scheduleAndFire() func() int {
	s := New(1)
	return func() int {
		s.After(time.Microsecond, func() {})
		s.Step()
		return s.Pending()
	}
}

// deepQueue is the same operation behind 10 000 pending events spaced 1 ms
// apart — under the wheel, all of them in the overflow heap.
func deepQueue() func() int {
	const depth = 10000
	s := New(1)
	for i := 0; i < depth; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() {})
	}
	next := depth
	return func() int {
		s.At(time.Duration(next)*time.Millisecond, func() {})
		next++
		s.Step()
		return s.Pending()
	}
}

// selfScheduling is the common element pattern: each event schedules its
// successor (timers, pacing wheels).
func selfScheduling() func() int {
	s := New(1)
	var tick func()
	tick = func() { s.After(100*time.Microsecond, tick) }
	s.After(0, tick)
	return func() int { s.Step(); return s.Pending() }
}

// holdModel is the classic hold model on the event mix measured at
// pop_500's schedule call sites (DESIGN.md, "Event-loop internals"): 2 000
// events stay live, and each one fired schedules its successor — 48 % a
// pacing wake 16–64 µs ahead (one in seven up to a few ms), 20 % a
// zero-delay hand-off between elements, 20 % a link departure or
// propagation hop 16–65 ms ahead, 12 % an RTO-like timer at 200 ms–1 s
// that is cancelled and re-armed while still pending. The three workloads
// above hold one event, or 10 000 spaced 1 ms apart, and never cancel; this
// is the one that loads both queue tiers the way a many-flow run does.
func holdModel() func() int {
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
			if timer.pending() {
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
	return func() int { s.Step(); return s.Pending() }
}

// TestHotPathBudget is the event loop's allocation and determinism gate:
// no workload allocates per operation (the pooled arena and the
// closure-free schedule path), and after thousands of operations the queue
// holds exactly the events it held before them — an event lost or fired
// twice moves that count.
func TestHotPathBudget(t *testing.T) {
	for _, w := range []struct {
		name string
		op   func() int
		live int
	}{
		{"ScheduleAndFire", scheduleAndFire(), 0},
		{"DeepQueue", deepQueue(), 10000},
		{"SelfScheduling", selfScheduling(), 1},
		{"HoldModel", holdModel(), 2000},
	} {
		var live int
		if allocs := testing.AllocsPerRun(20000, func() { live = w.op() }); allocs != 0 {
			t.Errorf("%s: %v allocations per operation, want none", w.name, allocs)
		}
		if live != w.live {
			t.Errorf("%s: %d events live, want %d held", w.name, live, w.live)
		}
	}
	// Filing, dispatching and freeing an event touch most of its record:
	// one cache line keeps that one miss, however cold the arena slot.
	if size := unsafe.Sizeof(eventRec{}); size > 64 {
		t.Errorf("eventRec is %d bytes, want at most one 64-byte cache line", size)
	}
}

func benchOp(b *testing.B, op func() int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkScheduleAndFire(b *testing.B) { benchOp(b, scheduleAndFire()) }
func BenchmarkDeepQueue(b *testing.B)       { benchOp(b, deepQueue()) }
func BenchmarkSelfScheduling(b *testing.B)  { benchOp(b, selfScheduling()) }
func BenchmarkHoldModel(b *testing.B)       { benchOp(b, holdModel()) }
