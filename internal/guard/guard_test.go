package guard

import (
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"starvation/internal/netem"
	"starvation/internal/netem/faults"
	"starvation/internal/packet"
	"starvation/internal/sim"
	"starvation/internal/units"
)

func TestFlowLedgerBalances(t *testing.T) {
	fl := FlowLedger{
		Name: "f", Sent: 100,
		DroppedPreQueue: 10, Enqueued: 86, DroppedAtQueue: 4,
		HeldInQueue: 3, Dequeued: 83,
		HeldPostQueue: 2, Delivered: 81,
	}
	if err := fl.check(); err != nil {
		t.Errorf("balanced ledger rejected: %v", err)
	}
	if n := fl.HeldInQueue + fl.HeldPostQueue; n != 5 {
		t.Errorf("held in flight = %d, want 5", n)
	}
}

func TestFlowLedgerImbalances(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*FlowLedger)
		wantSub string
	}{
		{"negative entry", func(f *FlowLedger) { f.Sent = -1; f.Enqueued = -1 }, "negative ledger entry"},
		{"pre-queue leak", func(f *FlowLedger) { f.Enqueued--; f.Dequeued--; f.Delivered-- }, "pre-queue imbalance"},
		{"queue leak", func(f *FlowLedger) { f.Dequeued--; f.Delivered-- }, "queue imbalance"},
		{"post-queue leak", func(f *FlowLedger) { f.Delivered-- }, "post-queue imbalance"},
	}
	for _, c := range cases {
		fl := FlowLedger{Name: "f", Sent: 100, Enqueued: 100, Dequeued: 100, Delivered: 100}
		c.mutate(&fl)
		err := fl.check()
		if err == nil {
			t.Errorf("%s: imbalance accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q, want substring %q", c.name, err, c.wantSub)
		}
	}
}

func TestLedgerJoinsFlows(t *testing.T) {
	lg := Ledger{Flows: []FlowLedger{
		{Name: "ok", Sent: 10, Enqueued: 10, Dequeued: 10, Delivered: 10},
		{Name: "leaky", Sent: 10, Enqueued: 9, Dequeued: 9, Delivered: 9},
	}}
	err := lg.Check()
	if err == nil {
		t.Fatal("leaky flow accepted")
	}
	if !strings.Contains(err.Error(), "leaky") || !strings.Contains(err.Error(), "global") {
		t.Errorf("error %q should name the leaky flow and the global sum", err)
	}
	lg.Flows[1].Enqueued = 10
	lg.Flows[1].Dequeued = 10
	lg.Flows[1].Delivered = 10
	if err := lg.Check(); err != nil {
		t.Errorf("balanced ledger rejected: %v", err)
	}
}

// TestRogueElementCaught is the acceptance case for the conservation
// invariant: an element that silently swallows packets — dropping without
// reporting to any counter — must break the ledger. The rig mirrors the
// network pipeline: GE gate → rogue element → bottleneck → receiver count.
func TestRogueElementCaught(t *testing.T) {
	s := sim.New(1)
	var delivered int64
	link := netem.NewLink(s, units.Mbps(48), 0, func(packet.Packet) { delivered++ })
	swallowed := 0
	rogue := func(p packet.Packet) {
		if p.Seq%5 == 4 { // silently eat every 5th packet
			swallowed++
			return
		}
		link.Enqueue(p)
	}
	gate := faults.NewGEGate(faults.GEConfig{PGoodToBad: 0.01, PBadToGood: 0.2, PDropBad: 0.5},
		rand.New(rand.NewSource(5)), rogue)
	const n = 1000
	s.At(0, func() {
		for i := 0; i < n; i++ {
			gate.Send(packet.Packet{Seq: int64(i), Size: 1500})
		}
	})
	s.Run(10 * time.Second)
	if swallowed == 0 {
		t.Fatal("rogue element swallowed nothing; rig broken")
	}
	ls := link.FlowStats(0)
	fl := FlowLedger{
		Name:            "rigged",
		Sent:            n,
		DroppedPreQueue: gate.Dropped,
		Enqueued:        ls.Enqueued,
		DroppedAtQueue:  ls.Dropped,
		HeldInQueue:     ls.Holding,
		Dequeued:        ls.Delivered,
		Delivered:       delivered,
	}
	err := fl.check()
	if err == nil {
		t.Fatalf("ledger balanced despite %d silently swallowed packets", swallowed)
	}
	if !strings.Contains(err.Error(), "pre-queue imbalance") {
		t.Errorf("error %q, want the pre-queue segment to surface the leak", err)
	}
	// Same rig with the rogue element removed balances.
	fl.Enqueued += int64(swallowed)
	fl.Dequeued += int64(swallowed)
	fl.Delivered += int64(swallowed)
	if err := fl.check(); err != nil {
		t.Errorf("repaired ledger still unbalanced: %v", err)
	}
}

func TestCaptureAttachesContext(t *testing.T) {
	e := Capture("bbr-two", 42, func() { panic("element bug") })
	if e == nil {
		t.Fatal("panic not captured")
	}
	if e.Kind != kindPanic || e.Scenario != "bbr-two" || e.Seed != 42 {
		t.Errorf("RunError = %+v", e)
	}
	if e.Msg != "element bug" || e.Stack == "" {
		t.Errorf("missing panic payload or stack: %+v", e)
	}
	if !strings.Contains(e.Error(), "seed 42") {
		t.Errorf("Error() = %q, want the seed for reproduction", e.Error())
	}
	if e := Capture("ok", 1, func() {}); e != nil {
		t.Errorf("clean run produced %+v", e)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	var m Manifest
	m.Add(nil) // ignored
	m.Add(&RunError{Scenario: "x", Kind: kindPanic, Msg: "boom"})
	if len(m.Errors) != 1 {
		t.Fatalf("Errors = %d, want 1 (nil adds ignored)", len(m.Errors))
	}
	path := t.TempDir() + "/errors.json"
	if err := m.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	var got Manifest
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(got.Errors) != 1 || got.Errors[0].Scenario != "x" {
		t.Errorf("round trip = %+v", got)
	}
}

// TestOptionsDefaults pins the guard's fixed thresholds, which every
// guarded run gets: a flow stalls after 1000 × Rm without a delivery, and
// the stall check runs every virtual second.
func TestOptionsDefaults(t *testing.T) {
	if got := StallAfter(40 * time.Millisecond); got != 40*time.Second {
		t.Errorf("StallAfter(40ms) = %v, want 40s (K=1000)", got)
	}
	if got := StallAfter(120 * time.Millisecond); got != 2*time.Minute {
		t.Errorf("StallAfter(120ms) = %v, want 2m", got)
	}
	if CheckEvery != time.Second {
		t.Errorf("CheckEvery = %v, want 1s", CheckEvery)
	}
}

func TestReportString(t *testing.T) {
	var r Report
	if !r.Ok() || r.String() != "guard: ok" {
		t.Errorf("empty report: Ok=%v String=%q", r.Ok(), r.String())
	}
	r.Violations = append(r.Violations, Violation{Kind: "stall", Flow: 1, At: time.Second, Msg: "m"})
	if r.Ok() {
		t.Error("report with violations Ok")
	}
	s := r.String()
	for _, want := range []string{"guard: 1 violation(s)", "[stall] flow 1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
