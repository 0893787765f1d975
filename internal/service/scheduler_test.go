package service

import (
	"fmt"
	"testing"
	"time"
)

func mkItems(client, batch string, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Client: client, BatchID: batch, Payload: i}
	}
	return items
}

// TestSchedulerAntiStarvation is the subsystem's reason to exist: a
// 1000-job sweep from one client cannot starve a 5-job probe from
// another. With equal weights the probe's jobs dispatch within one
// round-robin slice each — all five inside the first ten dispatches.
func TestSchedulerAntiStarvation(t *testing.T) {
	s := NewScheduler(2000)
	if err := s.Enqueue("sweeper", 1, mkItems("sweeper", "big", 1000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue("prober", 1, mkItems("prober", "small", 5)); err != nil {
		t.Fatal(err)
	}
	probeDone := 0
	for i := 0; i < 10; i++ {
		it, ok := s.Next()
		if !ok {
			t.Fatal("scheduler closed unexpectedly")
		}
		if it.Client == "prober" {
			probeDone++
		}
	}
	if probeDone != 5 {
		t.Fatalf("probe got %d of its 5 jobs in the first 10 dispatches; the sweep starved it", probeDone)
	}
}

// TestSchedulerWeights: a weight-3 client receives three slots per round
// to a weight-1 client's one.
func TestSchedulerWeights(t *testing.T) {
	s := NewScheduler(0)
	if err := s.Enqueue("heavy", 3, mkItems("heavy", "h", 300)); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue("light", 1, mkItems("light", "l", 100)); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 80; i++ {
		it, _ := s.Next()
		counts[it.Client]++
	}
	if counts["heavy"] != 60 || counts["light"] != 20 {
		t.Fatalf("80 dispatches split %v, want heavy=60 light=20", counts)
	}
}

// TestSchedulerQueueFull: admission is all-or-nothing at the depth bound.
func TestSchedulerQueueFull(t *testing.T) {
	s := NewScheduler(10)
	if err := s.Enqueue("a", 1, mkItems("a", "x", 8)); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue("b", 1, mkItems("b", "y", 3)); err != errQueueFull {
		t.Fatalf("overfull enqueue: %v, want errQueueFull", err)
	}
	if got := s.queued(); got != 8 {
		t.Fatalf("depth %d after rejected enqueue, want 8 (no partial admission)", got)
	}
	if err := s.Enqueue("b", 1, mkItems("b", "y", 2)); err != nil {
		t.Fatalf("fitting enqueue rejected: %v", err)
	}
}

// TestSchedulerCancel removes only the batch's queued items.
func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler(0)
	items := append(mkItems("a", "keep", 3), mkItems("a", "drop", 4)...)
	if err := s.Enqueue("a", 1, items); err != nil {
		t.Fatal(err)
	}
	if removed := s.cancel("drop"); removed != 4 {
		t.Fatalf("cancelled %d items, want 4", removed)
	}
	if got := s.queued(); got != 3 {
		t.Fatalf("depth %d after cancel, want 3", got)
	}
	for i := 0; i < 3; i++ {
		it, ok := s.Next()
		if !ok || it.BatchID != "keep" {
			t.Fatalf("dispatch %d: %+v ok=%v, want a keep item", i, it, ok)
		}
	}
}

// TestSchedulerCancelThenReenqueue: a client whose queue was emptied by a
// cancellation (leaving a stale ring entry) must not end up ringed twice —
// that would double its share.
func TestSchedulerCancelThenReenqueue(t *testing.T) {
	s := NewScheduler(0)
	if err := s.Enqueue("a", 1, mkItems("a", "x", 4)); err != nil {
		t.Fatal(err)
	}
	s.cancel("x") // queue empty, ring entry stale
	if err := s.Enqueue("a", 1, mkItems("a", "y", 50)); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue("b", 1, mkItems("b", "z", 50)); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		it, _ := s.Next()
		counts[it.Client]++
	}
	if counts["a"] != 20 || counts["b"] != 20 {
		t.Fatalf("40 dispatches split %v, want 20/20 — the stale ring entry doubled a share", counts)
	}
}

// TestSchedulerClose wakes blocked Next calls and fails future enqueues.
func TestSchedulerClose(t *testing.T) {
	s := NewScheduler(0)
	got := make(chan bool, 1)
	go func() {
		_, ok := s.Next()
		got <- ok
	}()
	time.Sleep(10 * time.Millisecond) // let Next park
	s.close()
	select {
	case ok := <-got:
		if ok {
			t.Fatal("Next returned an item from a closed scheduler")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake the blocked Next")
	}
	if err := s.Enqueue("a", 1, mkItems("a", "x", 1)); err != errClosed {
		t.Fatalf("post-close enqueue: %v, want errClosed", err)
	}
}

// TestSchedulerSnapshot reports per-client queue state for /debug/queue.
func TestSchedulerSnapshot(t *testing.T) {
	s := NewScheduler(0)
	for i, c := range []string{"zeta", "alpha"} {
		if err := s.Enqueue(c, i+1, mkItems(c, fmt.Sprintf("b%d", i), 3+i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.snapshot()
	if len(snap) != 2 || snap[0].Client != "alpha" || snap[1].Client != "zeta" {
		t.Fatalf("snapshot %+v, want alpha then zeta", snap)
	}
	if snap[0].Queued != 4 || snap[0].Weight != 2 {
		t.Fatalf("alpha %+v, want queued=4 weight=2", snap[0])
	}
}
