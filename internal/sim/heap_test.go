package sim

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// modelEvent mirrors one live scheduled event in the reference model of
// the property test: its absolute time, its FIFO tie-break rank, and the
// id its callback reports when it fires.
type modelEvent struct {
	at  Time
	seq uint64
	id  int
}

// TestPropertyScheduleCancelStepOrdering drives the pooled heap through
// randomized schedule/cancel/step interleavings against a brute-force
// reference model: whenever an event fires it must be exactly the live
// event with the smallest (at, seq) — the engine's determinism contract —
// including after cancellations have recycled arena slots mid-run.
func TestPropertyScheduleCancelStepOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(1)
		var fired []int
		model := map[int]modelEvent{}
		handles := map[int]Handle{}
		nextID := 0
		var seq uint64 // mirrors the engine's schedule counter

		for op := 0; op < 2000; op++ {
			switch rng.Intn(5) {
			case 0, 1: // schedule
				d := time.Duration(rng.Intn(40)) * time.Millisecond
				id := nextID
				nextID++
				model[id] = modelEvent{at: s.Now() + d, seq: seq, id: id}
				handles[id] = s.After(d, func() { fired = append(fired, id) })
				seq++
			case 2: // cancel a live event (recycles its slot)
				for id := range model {
					handles[id].Cancel()
					delete(model, id)
					break
				}
			case 3: // stale cancel: a handle whose event fired or was cancelled
				for id, h := range handles {
					if _, live := model[id]; !live {
						h.Cancel() // must be a no-op on the pooled slot's new tenant
						break
					}
				}
			case 4: // step
				before := len(fired)
				stepped := s.Step()
				if stepped != (len(model) > 0) {
					return false
				}
				if !stepped {
					continue
				}
				if len(fired) != before+1 {
					return false
				}
				// The fired event must be the model's (at, seq) minimum.
				want := -1
				for id, ev := range model {
					if want == -1 {
						want = id
						continue
					}
					w := model[want]
					if ev.at < w.at || (ev.at == w.at && ev.seq < w.seq) {
						want = id
					}
				}
				got := fired[len(fired)-1]
				if got != want {
					return false
				}
				delete(model, got)
			}
			if s.Pending() != len(model) {
				return false
			}
		}
		// Drain: the remainder must fire in (at, seq) order.
		mark := len(fired)
		s.Run(time.Hour)
		tail := fired[mark:]
		if len(tail) != len(model) {
			return false
		}
		for i := 1; i < len(tail); i++ {
			a, b := model[tail[i-1]], model[tail[i]]
			if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestStaleCancelAfterSlotReuse pins the generation-handle contract: a
// handle kept across its event's cancellation must not touch the slot's
// next tenant, even though the free list hands the same slot straight
// back to the next schedule.
func TestStaleCancelAfterSlotReuse(t *testing.T) {
	s := New(1)
	h1 := s.At(10*time.Millisecond, func() { t.Error("cancelled event fired") })
	slot1 := h1.slot
	h1.Cancel()

	fired := false
	h2 := s.At(20*time.Millisecond, func() { fired = true })
	if h2.slot != slot1 {
		t.Fatalf("free list did not recycle slot %d (got %d); test premise broken", slot1, h2.slot)
	}
	if h2.gen == h1.gen {
		t.Fatalf("slot reuse kept generation %d; stale handles would alias", h1.gen)
	}

	h1.Cancel() // stale: must not cancel h2's event
	if !h2.pending() {
		t.Fatal("stale Cancel killed the slot's new tenant")
	}
	if h1.pending() {
		t.Error("stale handle reports pending")
	}
	s.Run(time.Second)
	if !fired {
		t.Error("event on reused slot never fired")
	}
	if st := s.Stats(); st.Fired != 1 || st.Cancelled != 1 || st.Scheduled != 2 {
		t.Errorf("Stats = %+v, want fired=1 cancelled=1 scheduled=2", st)
	}
}

// TestStaleCancelAfterFireAndReuse is the same contract for the other
// release path: the slot of a fired event is recycled and the old handle
// must stay inert.
func TestStaleCancelAfterFireAndReuse(t *testing.T) {
	s := New(1)
	h1 := s.At(time.Millisecond, func() {})
	s.Run(5 * time.Millisecond)

	fired := false
	h2 := s.At(20*time.Millisecond, func() { fired = true })
	if h2.slot != h1.slot {
		t.Fatalf("expected fired slot %d to be recycled, got %d", h1.slot, h2.slot)
	}
	h1.Cancel()
	if !h2.pending() {
		t.Fatal("stale Cancel (after fire) killed the slot's new tenant")
	}
	s.Run(time.Second)
	if !fired {
		t.Error("event on reused slot never fired")
	}
}

// TestCancelThenReuseInsideDispatch exercises slot recycling at its
// tightest: a firing event cancels a sibling and schedules a replacement,
// which must land on a recycled slot and still fire in correct order.
func TestCancelThenReuseInsideDispatch(t *testing.T) {
	s := New(1)
	var order []string
	var victim Handle
	victim = s.At(30*time.Millisecond, func() { order = append(order, "victim") })
	s.At(10*time.Millisecond, func() {
		victim.Cancel()
		s.At(20*time.Millisecond, func() { order = append(order, "replacement") })
	})
	s.At(25*time.Millisecond, func() { order = append(order, "mid") })
	s.Run(time.Second)
	if len(order) != 2 || order[0] != "replacement" || order[1] != "mid" {
		t.Errorf("order = %v, want [replacement mid]", order)
	}
}

// TestStepHonorsContext verifies the Step guard hole is closed: a dead
// context stops a Step-driven loop exactly as it stops Run.
func TestStepHonorsContext(t *testing.T) {
	s := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	s.SetContext(ctx)
	ran := 0
	s.After(0, func() { ran++ })
	s.After(time.Millisecond, func() { ran++ })
	if !s.Step() {
		t.Fatal("live context blocked Step")
	}
	cancel()
	if s.Step() {
		t.Error("Step fired an event under a cancelled context")
	}
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d after the cancelled Step, want 1", s.Pending())
	}
}
