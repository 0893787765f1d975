package sim

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// TestRunContextCancel checks a cancelled context halts the loop at
// run-tick granularity: a self-rescheduling event chain that would fire
// forever stops within one check interval of the cancellation.
func TestRunContextCancel(t *testing.T) {
	s := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	s.SetContext(ctx)

	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired == 100 {
			cancel()
		}
		s.After(time.Microsecond, tick)
	}
	s.After(0, tick)
	s.Run(time.Hour) // would be ~3.6e9 events without the cancellation
	if fired > 100+ctxCheckEvery {
		t.Errorf("loop fired %d events after cancellation, want ≤ %d", fired-100, ctxCheckEvery)
	}
	if s.Now() == time.Hour {
		t.Errorf("cancelled run reached its horizon")
	}
}

// TestRunContextLivelock pins the context deadline as the livelock
// backstop: a handler that re-schedules itself at the current instant
// never lets the virtual clock advance, so no virtual-time check would
// ever run, yet the event-count poll still halts Run once the wall-clock
// deadline expires.
func TestRunContextLivelock(t *testing.T) {
	s := New(1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	s.SetContext(ctx)
	var spin func()
	spin = func() { s.At(s.Now(), spin) }
	s.At(0, spin)
	s.Run(time.Hour)
	if ctx.Err() == nil {
		t.Fatal("Run returned before the deadline")
	}
	if s.Now() != 0 {
		t.Errorf("livelocked run left Now = %v, want 0", s.Now())
	}
}

// TestRunContextPreCancelled checks a run whose context is already dead
// fires nothing.
func TestRunContextPreCancelled(t *testing.T) {
	s := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.SetContext(ctx)
	ran := false
	s.After(0, func() { ran = true })
	s.Run(time.Second)
	if ran {
		t.Errorf("event fired under a pre-cancelled context")
	}
}

// TestRunContextDeterminism checks the cancellation hook is
// observation-only: with a live (never-cancelled) context installed, a
// run fires exactly the same events as without one.
func TestRunContextDeterminism(t *testing.T) {
	run := func(ctx context.Context) (fired uint64, draw int64) {
		s := New(42)
		rng := rand.New(rand.NewSource(42))
		if ctx != nil {
			s.SetContext(ctx)
		}
		var chain func()
		n := 0
		chain = func() {
			n++
			if n < 5000 {
				s.After(time.Duration(rng.Intn(50))*time.Microsecond, chain)
			}
		}
		s.After(0, chain)
		s.Run(time.Second)
		return s.Stats().Fired, rng.Int63()
	}
	f0, r0 := run(nil)
	f1, r1 := run(context.Background())
	if f0 != f1 || r0 != r1 {
		t.Errorf("installing a context perturbed the run: events %d vs %d, rng %d vs %d",
			f0, f1, r0, r1)
	}
}
