package obs

import (
	"reflect"
	"testing"
)

func TestCohortsAggregates(t *testing.T) {
	r := NewRegistry()
	events := []Event{
		{Type: EvEnqueue, Flow: 0, Bytes: 1500, Queue: 1500},
		{Type: EvDeliver, Flow: 0, Bytes: 1500},
		{Type: EvAckRecv, Flow: 0, Seq: 1500, Bytes: 1500},
		{Type: EvEnqueue, Flow: 1, Bytes: 1500, Queue: 3000},
		{Type: EvDrop, Flow: 1, Bytes: 1500, Queue: -1},
		{Type: EvEnqueue, Flow: 2, Bytes: 1500, Queue: 4500},
	}
	for _, e := range events {
		r.Emit(e)
	}
	snap := r.Snapshot()
	snap.Flows[0].Cohort = "bbr"
	snap.Flows[1].Cohort = "vegas"
	snap.Flows[2].Cohort = "bbr"

	got := snap.cohorts()
	if len(got) != 2 {
		t.Fatalf("cohorts = %d, want 2", len(got))
	}
	// Sorted by label.
	if got[0].Cohort != "bbr" || got[1].Cohort != "vegas" {
		t.Fatalf("order = [%s %s], want [bbr vegas]", got[0].Cohort, got[1].Cohort)
	}
	bbr, vegas := got[0], got[1]
	if bbr.Flows != 2 || vegas.Flows != 1 {
		t.Errorf("flow counts = %d/%d, want 2/1", bbr.Flows, vegas.Flows)
	}
	if bbr.Sum.PacketsEnqueued != 2 || bbr.Sum.PacketsDelivered != 1 ||
		bbr.Sum.BytesAcked != 1500 || bbr.Sum.AcksReceived != 1 {
		t.Errorf("bbr sum = %+v", bbr.Sum)
	}
	if vegas.Sum.PacketsDropped != 1 || vegas.Sum.DroppedAtGate != 1 {
		t.Errorf("vegas sum = %+v", vegas.Sum)
	}
	// Identity fields stay empty in sums.
	if bbr.Sum.Name != "" {
		t.Errorf("sum Name = %q, want empty", bbr.Sum.Name)
	}
}

func TestCohortsEmptyLabelAndStability(t *testing.T) {
	r := NewRegistry()
	r.Emit(Event{Type: EvDeliver, Flow: 0, Bytes: 1500})
	r.Emit(Event{Type: EvDeliver, Flow: 1, Bytes: 1500})
	snap := r.Snapshot()
	snap.Flows[1].Cohort = "zz"

	a := snap.cohorts()
	b := snap.cohorts()
	if !reflect.DeepEqual(a, b) {
		t.Error("Cohorts is not deterministic across calls")
	}
	if a[0].Cohort != "" || a[1].Cohort != "zz" {
		t.Fatalf("order = [%q %q], want empty label first", a[0].Cohort, a[1].Cohort)
	}
	if a[0].Flows != 1 || a[0].Sum.PacketsDelivered != 1 {
		t.Errorf("uncohorted group = %+v", a[0])
	}
}

func TestCohortsEmptySnapshot(t *testing.T) {
	var snap Snapshot
	if got := snap.cohorts(); len(got) != 0 {
		t.Errorf("Cohorts of empty snapshot = %v, want none", got)
	}
}
