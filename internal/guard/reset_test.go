package guard

import (
	"reflect"
	"testing"
	"time"

	"starvation/internal/obs"
)

// TestMonitorResetIndistinguishableFromFresh pins the reset contract of
// the liveness monitor: after Reset, re-tracking and replaying the same
// event stream produces the same sweep and counter verdicts as a fresh
// monitor — with no stall latches, tracking registrations, or progress
// counters leaking from the previous run.
func TestMonitorResetIndistinguishableFromFresh(t *testing.T) {
	drive := func(m *Monitor) (v1, v2, cc []Violation) {
		m.Track(0, 50*time.Millisecond, 0)
		m.Track(1, 50*time.Millisecond, 10*time.Millisecond)
		m.Emit(obs.Event{Type: obs.EvEnqueue, Flow: 0, At: time.Millisecond})
		m.Emit(obs.Event{Type: obs.EvDequeue, Flow: 0, At: 2 * time.Millisecond})
		m.Emit(obs.Event{Type: obs.EvDeliver, Flow: 0, At: 3 * time.Millisecond})
		// By 100ms both flows are idle past the threshold: each must stall
		// exactly once, at the first sweep past its last progress.
		v1 = m.Sweep(100 * time.Millisecond)
		v2 = m.Sweep(200 * time.Millisecond) // latched: no repeat report
		return v1, v2, m.CheckCounters(200 * time.Millisecond)
	}

	fresh := NewMonitor()
	fv1, fv2, fcc := drive(fresh)
	if len(fv1) != 2 || len(fv2) != 0 || len(fcc) != 0 {
		t.Fatalf("fresh monitor baseline unexpected: sweep1=%v sweep2=%v counters=%v", fv1, fv2, fcc)
	}

	reused := NewMonitor()
	drive(reused)
	// Dirty it beyond the scenario: extra flow, extra stall latches, and a
	// delivery nothing dequeued.
	reused.Track(5, time.Millisecond, 0)
	reused.Emit(obs.Event{Type: obs.EvDeliver, Flow: 5, At: time.Second})
	reused.Sweep(10 * time.Second)
	if cc := reused.CheckCounters(10 * time.Second); len(cc) != 1 {
		t.Fatalf("dirty monitor counter check = %v, want one violation", cc)
	}
	reused.Reset()
	if cc := reused.CheckCounters(time.Hour); len(cc) != 0 {
		t.Fatalf("reset monitor still holds counters: %v", cc)
	}
	if v := reused.Sweep(time.Hour); len(v) != 0 {
		t.Fatalf("reset monitor swept violations with nothing tracked: %v", v)
	}
	rv1, rv2, rcc := drive(reused)
	if !reflect.DeepEqual(rv1, fv1) || !reflect.DeepEqual(rv2, fv2) {
		t.Errorf("reset monitor sweep diverged: got %v,%v want %v,%v", rv1, rv2, fv1, fv2)
	}
	if !reflect.DeepEqual(rcc, fcc) {
		t.Errorf("reset monitor counter check diverged: got %v want %v", rcc, fcc)
	}
}

// TestLedgerResetIndistinguishableFromFresh pins that a reset ledger
// refills to the same state as a fresh one and holds no ghost flows.
func TestLedgerResetIndistinguishableFromFresh(t *testing.T) {
	fill := func(l *Ledger) {
		l.Flows = append(l.Flows, FlowLedger{
			Name: "f0", Sent: 100, Enqueued: 98, DroppedAtQueue: 2,
			Dequeued: 97, HeldInQueue: 1, Delivered: 96, HeldPostQueue: 1,
		})
	}
	fresh := &Ledger{}
	fill(fresh)
	if err := fresh.Check(); err != nil {
		t.Fatalf("baseline ledger should balance: %v", err)
	}

	reused := &Ledger{}
	fill(reused)
	reused.Flows = append(reused.Flows, FlowLedger{Name: "ghost", Sent: 5}) // unbalanced
	if err := reused.Check(); err == nil {
		t.Fatal("dirty ledger should fail its check")
	}
	reused.Reset()
	if len(reused.Flows) != 0 {
		t.Fatalf("reset ledger holds %d flows", len(reused.Flows))
	}
	fill(reused)
	if !reflect.DeepEqual(reused, fresh) {
		t.Errorf("reset ledger diverged:\n got %+v\nwant %+v", reused, fresh)
	}
	if err := reused.Check(); err != nil {
		t.Errorf("refilled reset ledger: %v", err)
	}
}
