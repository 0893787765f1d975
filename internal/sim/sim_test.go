package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"starvation/internal/packet"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30*time.Millisecond, func() { got = append(got, 3) })
	s.At(10*time.Millisecond, func() { got = append(got, 1) })
	s.At(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run(time.Second)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run(time.Second)
	if !sort.IntsAreSorted(got) {
		t.Errorf("equal-timestamp events fired out of scheduling order: %v", got)
	}
}

func TestAfterRelativeToNow(t *testing.T) {
	s := New(1)
	var at Time
	s.At(5*time.Millisecond, func() {
		s.After(3*time.Millisecond, func() { at = s.Now() })
	})
	s.Run(time.Second)
	if at != 8*time.Millisecond {
		t.Errorf("After fired at %v, want 8ms", at)
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	s := New(1)
	fired := false
	s.After(-time.Second, func() { fired = true })
	s.Run(time.Millisecond)
	if !fired {
		t.Error("negative After never fired")
	}
}

// TestPayloadWrappers pins what the bench module's ledger driver relies
// on: AfterPacket and AfterAck hand their payload to fn unchanged at
// now+d (at now for a negative d), and among events at one instant they
// fire in scheduling order with At's.
func TestPayloadWrappers(t *testing.T) {
	const now = 2 * time.Millisecond
	pkt := packet.Packet{Flow: 3, Seq: 42, Size: 1500, SentAt: time.Millisecond, Retx: true, ECN: true, Hop: 1}
	ack := packet.Ack{Flow: 3, CumAck: 41, SackSeq: 42, EchoSentAt: time.Millisecond, EchoRetx: true,
		RecvdAt: now, Count: 2, NewlyAcked: 1500, Delivered: 63000, ECE: true}
	for _, tc := range []struct {
		name string
		d    time.Duration
		want Time
	}{
		{"positive", 3 * time.Millisecond, now + 3*time.Millisecond},
		{"zero", 0, now},
		{"negative", -time.Second, now},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(1)
			var got []string
			mark := func(name string) func() {
				return func() {
					if s.Now() != tc.want {
						t.Errorf("%s fired at %v, want %v", name, s.Now(), tc.want)
					}
					got = append(got, name)
				}
			}
			s.At(now, func() {
				s.At(tc.want, mark("at0"))
				s.AfterPacket(tc.d, func(p packet.Packet) {
					if p != pkt {
						t.Errorf("AfterPacket delivered %+v, want %+v", p, pkt)
					}
					mark("packet")()
				}, pkt)
				s.At(tc.want, mark("at1"))
				s.AfterAck(tc.d, func(a packet.Ack) {
					if a != ack {
						t.Errorf("AfterAck delivered %+v, want %+v", a, ack)
					}
					mark("ack")()
				}, ack)
				s.At(tc.want, mark("at2"))
			})
			s.Run(time.Second)
			if want := []string{"at0", "packet", "at1", "ack", "at2"}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("fired %v, want %v", got, want)
			}
		})
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5*time.Millisecond, func() {})
	})
	s.Run(time.Second)
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	h := s.At(10*time.Millisecond, func() { fired = true })
	if !h.pending() {
		t.Error("handle should be pending before firing")
	}
	h.Cancel()
	s.Run(time.Second)
	if fired {
		t.Error("cancelled event fired")
	}
	if h.pending() {
		t.Error("cancelled handle still pending")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	s := New(1)
	h := s.At(time.Millisecond, func() {})
	s.Run(time.Second)
	h.Cancel() // must not panic or corrupt state
	if h.pending() {
		t.Error("fired handle reports pending")
	}
}

func TestZeroHandleSafe(t *testing.T) {
	var h Handle
	h.Cancel()
	if h.pending() {
		t.Error("zero handle reports pending")
	}
}

func TestRunHorizonStopsAndAdvancesClock(t *testing.T) {
	s := New(1)
	fired := false
	s.At(2*time.Second, func() { fired = true })
	s.Run(time.Second)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if s.Now() != time.Second {
		t.Errorf("clock = %v, want horizon 1s", s.Now())
	}
	// Resume: the event is still queued.
	s.Run(3 * time.Second)
	if !fired {
		t.Error("event not fired after extending horizon")
	}
}

func TestHalt(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				s.halted = true
			}
		})
	}
	s.Run(time.Second)
	if count != 3 {
		t.Errorf("events fired = %d, want 3 (halted)", count)
	}
}

// TestHaltLeavesClockAtLastEvent pins that only the horizon or an empty
// queue moves the clock to the horizon. Were a halted Run to set it there
// too, with events still pending before it, the resumed Run would fire
// them in its past and move Now() backwards.
func TestHaltLeavesClockAtLastEvent(t *testing.T) {
	s := New(1)
	var at []Time
	for i := 1; i <= 10; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() {
			at = append(at, s.Now())
			if len(at) == 3 {
				s.halted = true
			}
		})
	}
	s.Run(time.Second)
	if s.Now() != 3*time.Millisecond || s.Pending() != 7 {
		t.Fatalf("after Halt: Now = %v with %d pending, want 3ms with 7", s.Now(), s.Pending())
	}
	s.Run(2 * time.Second)
	if len(at) != 10 || s.Now() != 2*time.Second {
		t.Fatalf("resumed Run fired %d of 10 events and left Now = %v", len(at), s.Now())
	}
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			t.Fatalf("clock ran backwards across the resumed Run: %v", at)
		}
	}

	// A cancelled context halts the same way.
	s = New(1)
	ctx, cancel := context.WithCancel(context.Background())
	s.SetContext(ctx)
	s.At(0, cancel)
	for i := 1; i < 2*ctxCheckEvery; i++ {
		s.At(time.Duration(i)*time.Microsecond, func() {})
	}
	s.Run(time.Second)
	if want := time.Duration(ctxCheckEvery-1) * time.Microsecond; s.Now() != want {
		t.Errorf("after a context halt: Now = %v, want %v", s.Now(), want)
	}
}

func TestStep(t *testing.T) {
	s := New(1)
	n := 0
	s.At(time.Millisecond, func() { n++ })
	s.At(2*time.Millisecond, func() { n++ })
	if !s.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !s.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if s.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestStepSkipsCancelled(t *testing.T) {
	s := New(1)
	h := s.At(time.Millisecond, func() { t.Error("cancelled event ran") })
	fired := false
	s.At(2*time.Millisecond, func() { fired = true })
	h.Cancel()
	if !s.Step() || !fired {
		t.Error("Step did not skip cancelled event")
	}
}

func TestPendingCount(t *testing.T) {
	s := New(1)
	h1 := s.At(time.Millisecond, func() {})
	s.At(2*time.Millisecond, func() {})
	if got := s.Pending(); got != 2 {
		t.Errorf("Pending = %d, want 2", got)
	}
	h1.Cancel()
	if got := s.Pending(); got != 1 {
		t.Errorf("Pending after cancel = %d, want 1", got)
	}
}

func TestEventCount(t *testing.T) {
	s := New(1)
	for i := 0; i < 5; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run(time.Second)
	if s.Stats().Fired != 5 {
		t.Errorf("Events = %d, want 5", s.Stats().Fired)
	}
}

// Property: N events scheduled at random times fire in non-decreasing time
// order, and every event fires exactly once.
func TestQuickRandomScheduleOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(1)
		const n = 200
		var times []Time
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Intn(1000)) * time.Millisecond
			s.At(at, func() { times = append(times, s.Now()) })
		}
		s.Run(2 * time.Second)
		if len(times) != n {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: nested scheduling (events scheduling events) preserves causal
// order: a child never fires before its parent.
func TestQuickNestedCausality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(1)
		ok := true
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth == 0 {
				return
			}
			parent := s.Now()
			s.After(time.Duration(rng.Intn(10))*time.Millisecond, func() {
				if s.Now() < parent {
					ok = false
				}
				spawn(depth - 1)
			})
		}
		s.At(0, func() { spawn(20) })
		s.Run(time.Second)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestStatsAndLiveCounter exercises the O(1) Pending bookkeeping across
// schedule, double-cancel, cancel-after-fire, and dispatch.
func TestStatsAndLiveCounter(t *testing.T) {
	s := New(1)
	h1 := s.At(time.Millisecond, func() {})
	h2 := s.At(2*time.Millisecond, func() {})
	s.At(3*time.Millisecond, func() {})
	if got := s.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	h2.Cancel()
	h2.Cancel() // double cancel must not double-decrement
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending after cancel = %d, want 2", got)
	}
	s.Run(time.Second)
	h1.Cancel() // cancelling a fired event is a no-op for the counters
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after run = %d, want 0", got)
	}
	st := s.Stats()
	if st.Scheduled != 3 || st.Fired != 2 || st.Cancelled != 1 || st.Live != 0 {
		t.Errorf("Stats = %+v, want {3 2 1 0}", st)
	}
}

// TestPendingMatchesQueueScan cross-checks the maintained counter against a
// brute-force walk of both tiers under a random schedule/cancel/step
// workload whose delays straddle the wheel's horizon. Cancelled events
// leave their tier eagerly, so every queued entry is live; checkQueue
// (oracle_test.go) verifies the rest: each live slot in exactly one tier,
// occupancy bit set exactly for the non-empty buckets, lists sorted,
// overflow entries at or beyond the horizon, free + queued == arena.
func TestPendingMatchesQueueScan(t *testing.T) {
	s := New(7)
	rng := rand.New(rand.NewSource(99))
	var handles []Handle
	overflowed := false
	for i := 0; i < 2000; i++ {
		switch rng.Intn(3) {
		case 0:
			handles = append(handles, s.After(time.Duration(rng.Intn(150_000))*time.Microsecond, func() {}))
		case 1:
			if len(handles) > 0 {
				handles[rng.Intn(len(handles))].Cancel()
			}
		case 2:
			s.Step()
		}
		checkQueue(t, s)
		overflowed = overflowed || len(s.heap) > 0
	}
	if !overflowed {
		t.Error("no event ever waited in the overflow tier")
	}
}
