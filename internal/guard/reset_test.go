package guard

import (
	"reflect"
	"testing"
)

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
