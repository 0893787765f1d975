package sim

import (
	"context"
	"testing"
	"time"
)

// eventLog runs a fixed little scenario on s and returns the dispatch
// order with timestamps folded in — any divergence between a fresh and a
// reset simulator shows up here.
func eventLog(s *Simulator) []int64 {
	var log []int64
	note := func(tag int64) {
		log = append(log, tag, int64(s.Now()))
	}
	s.At(3*time.Millisecond, func() { note(1) })
	s.At(1*time.Millisecond, func() {
		note(2)
		s.After(4*time.Millisecond, func() { note(3) })
	})
	h := s.At(2*time.Millisecond, func() { note(4) })
	s.At(2*time.Millisecond, func() { note(5) }) // FIFO tie with the cancelled one
	h.Cancel()
	s.Run(10 * time.Millisecond)
	st := s.Stats()
	return append(log, int64(st.Scheduled), int64(st.Fired), int64(st.Cancelled), int64(st.Live))
}

// TestSimulatorResetEquivalence pins the reset contract: a simulator that
// has already run (growing its arena and heap) and is then Reset(seed)
// dispatches the identical event sequence, with identical counters, as
// New(seed).
func TestSimulatorResetEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		want := eventLog(New(seed))
		reused := New(99)
		_ = eventLog(reused) // dirty it with a different seed's run
		reused.Reset(seed)
		got := eventLog(reused)
		if len(got) != len(want) {
			t.Fatalf("seed %d: log length %d != %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: log[%d] = %d, want %d (reset diverged from fresh)", seed, i, got[i], want[i])
			}
		}
	}
}

// TestResetInvalidatesHandles pins the stale-handle safety: handles minted
// before Reset must be inert afterward — Pending reports false, Cancel is
// a no-op that cannot touch (or panic on) the recycled arena.
func TestResetInvalidatesHandles(t *testing.T) {
	s := New(1)
	fired := 0
	h1 := s.At(time.Millisecond, func() { fired++ })
	h2 := s.At(2*time.Millisecond, func() { fired++ })
	s.Run(1500 * time.Microsecond) // h1 fires, h2 still pending
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
	s.Reset(1)
	for _, h := range []Handle{h1, h2} {
		if h.pending() {
			t.Error("stale handle pending after Reset")
		}
		h.Cancel() // must be a no-op, not a heap corruption or panic
	}
	// The recycled arena must still work: schedule into the same slots.
	ran := false
	s.At(time.Millisecond, func() { ran = true })
	s.Run(2 * time.Millisecond)
	if !ran {
		t.Error("event scheduled after Reset did not fire")
	}
	if got := s.Stats(); got.Scheduled != 1 || got.Fired != 1 || got.Cancelled != 0 {
		t.Errorf("counters after reset run: %+v", got)
	}
}

// TestResetClearsContext pins that Reset removes the context like a fresh
// simulator: a dead context installed before the Reset halts nothing after
// it.
func TestResetClearsContext(t *testing.T) {
	s := New(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.SetContext(ctx)
	s.At(time.Millisecond, func() {})
	s.Run(time.Millisecond)
	if s.Pending() != 1 {
		t.Fatalf("dead context let %d of 1 events fire", 1-s.Pending())
	}
	s.Reset(3)
	n := 0
	s.At(time.Millisecond, func() { n++ })
	s.At(2*time.Millisecond, func() { n++ })
	s.Run(5 * time.Millisecond)
	if n != 2 {
		t.Errorf("context survived Reset: %d of 2 events fired", n)
	}
}

// TestResetKeepsGenerationsAndCapacity pins what makes an O(pending) Reset
// safe: the arena is truncated, not walked, yet a record handed out again
// after Reset still carries the generation its pre-reset lives left it —
// so a handle from before the Reset, whether its event had fired, been
// cancelled or was still pending, can neither report the slot's new event
// as its own nor cancel it — and the arena's capacity survives, so the
// next run schedules without allocating.
func TestResetKeepsGenerationsAndCapacity(t *testing.T) {
	s := New(1)
	const n = 1000
	old := make([]Handle, n)
	for i := range old {
		old[i] = s.At(time.Duration(i+1)*time.Millisecond, func() {})
	}
	old[10].Cancel()
	s.Run(n / 2 * time.Millisecond) // half fire, half stay pending
	pending := s.Pending()
	if pending == 0 || pending >= n-1 {
		t.Fatalf("pending %d: want some fired and some not", pending)
	}
	capBefore := cap(s.arena)
	s.Reset(1)
	if len(s.arena) != 0 || cap(s.arena) != capBefore || s.Pending() != 0 {
		t.Fatalf("after Reset: arena len %d cap %d (was %d), pending %d",
			len(s.arena), cap(s.arena), capBefore, s.Pending())
	}

	fired := 0
	fresh := make([]Handle, n)
	for i := range fresh {
		fresh[i] = s.At(time.Millisecond, func() { fired++ })
		if int(fresh[i].slot) != i {
			t.Fatalf("event %d after Reset got slot %d; a fresh simulator assigns %d", i, fresh[i].slot, i)
		}
	}
	for i, h := range old {
		if h.pending() {
			t.Fatalf("pre-reset handle %d reports the slot's new event as pending", i)
		}
		h.Cancel()
	}
	for i, h := range fresh {
		if !h.pending() {
			t.Fatalf("pre-reset handle cancelled the new event in slot %d", i)
		}
	}
	s.Run(time.Millisecond)
	if fired != n {
		t.Errorf("fired %d of %d events scheduled after Reset", fired, n)
	}

	// Both tiers refill without allocating: the wheel is part of the
	// Simulator, the overflow heap keeps its capacity.
	fn := func() {}
	if a := testing.AllocsPerRun(10, func() {
		s.Reset(1)
		for i := 0; i < n; i++ {
			s.At(time.Duration(i)*time.Millisecond, fn)
		}
	}); a != 0 {
		t.Errorf("scheduling into a reset arena allocated %v times per run", a)
	}

	// Reset visits occupied buckets only. An unoccupied bucket's list ends
	// are never read, so poison them all and see which Reset rewrote: none
	// — it clears bits, not buckets — while every occupancy word is zero.
	occupied := 0
	for i := range s.wheel {
		if s.occupied[i>>6]&(1<<(i&63)) != 0 {
			occupied++
			continue
		}
		s.wheel[i] = bucket{head: -7, tail: -7}
	}
	if over := len(s.heap); occupied == 0 || over == 0 || occupied+over != n {
		t.Fatalf("%d buckets occupied + %d in overflow, want both tiers in use and %d in all", occupied, over, n)
	}
	s.Reset(1)
	poisoned := 0
	for i := range s.wheel {
		if s.wheel[i] == (bucket{head: -7, tail: -7}) {
			poisoned++
		}
	}
	if poisoned != wheelBuckets-occupied {
		t.Errorf("Reset rewrote %d unoccupied buckets", wheelBuckets-occupied-poisoned)
	}
	if s.occupied != [wheelWords]uint64{} || len(s.heap) != 0 || s.origin != 0 {
		t.Errorf("after Reset: occupancy bits left set, %d in overflow, origin %d", len(s.heap), s.origin)
	}
	ran := 0
	s.At(0, func() { ran++ })
	s.At(time.Hour, func() { ran++ })
	s.Run(time.Hour)
	if ran != 2 {
		t.Errorf("%d of 2 events fired across the poisoned wheel", ran)
	}
}
