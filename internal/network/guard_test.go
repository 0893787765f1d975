package network

import (
	"reflect"
	"testing"
	"time"

	"starvation/internal/cca/vegas"
	"starvation/internal/guard"
	"starvation/internal/netem/faults"
	"starvation/internal/units"
)

func vegasSpec(name string) FlowSpec {
	return FlowSpec{Name: name, Alg: vegas.New(vegas.Config{}), Rm: 50 * time.Millisecond}
}

// TestStalledFlowTripsStallSweep is the acceptance case for the stall
// check: a flow whose every packet is dropped (LossProb 1) never
// delivers, so the check must flag it once its 1000 × Rm = 50 s threshold
// passes, saying it never delivered — while the conservation ledger still
// balances, because the gate reports its drops.
func TestStalledFlowTripsStallSweep(t *testing.T) {
	blackhole := vegasSpec("blackhole")
	blackhole.LossProb = 1
	n := New(
		Config{Rate: units.Mbps(12), Seed: 1, Guard: &guard.Options{}},
		blackhole,
		vegasSpec("healthy"),
	)
	res := n.Run(55 * time.Second)
	if res.Guard == nil {
		t.Fatal("guarded run has no report")
	}
	var stalls []guard.Violation
	for _, v := range res.Guard.Violations {
		if v.Kind == "stall" {
			stalls = append(stalls, v)
		}
	}
	if len(stalls) == 0 {
		t.Fatalf("no stall violation for a 100%%-loss flow; report: %s", res.Guard)
	}
	for _, v := range stalls {
		if v.Flow != 0 {
			t.Errorf("stall on flow %d, want only the blackhole flow 0: %s", v.Flow, v)
		}
	}
	if want := "no delivery since it started at 0s (threshold 50s)"; stalls[0].Msg != want || stalls[0].At != 51*time.Second {
		t.Errorf("stall = %s, want %q at 51s", stalls[0], want)
	}
	if err := res.Ledger.Check(); err != nil {
		t.Errorf("ledger unbalanced despite reported drops: %v", err)
	}
	if res.Flows[1].Stat.AckedBytes == 0 {
		t.Errorf("healthy flow made no progress")
	}
}

func faultySpecs() (Config, []FlowSpec) {
	impaired := vegasSpec("impaired")
	impaired.LossProb = 0.005
	impaired.GE = &faults.GEConfig{PGoodToBad: 0.01, PBadToGood: 0.2, PDropBad: 0.5}
	cfg := Config{
		Links: []LinkSpec{{Name: "bottleneck", Rate: units.Mbps(24), BufferBytes: 60 * 1500}},
		Seed:  7,
	}
	return cfg, []FlowSpec{impaired, vegasSpec("clean")}
}

// TestFaultPipelineConserves: with both loss gates active at once — GE
// and Bernoulli, ahead of a finite drop-tail buffer — the conservation
// ledger must still balance and the fault counters must show each gate
// actually fired.
func TestFaultPipelineConserves(t *testing.T) {
	cfg, specs := faultySpecs()
	res := New(cfg, specs...).Run(12 * time.Second)
	if err := res.Ledger.Check(); err != nil {
		t.Fatalf("ledger: %v", err)
	}
	fc := res.Flows[0].Faults
	if fc.GEDropped == 0 || fc.GEBursts == 0 {
		t.Errorf("GE gate never fired: %+v", fc)
	}
	if fc.GateDropped == 0 {
		t.Errorf("Bernoulli gate never fired: %+v", fc)
	}
	clean := res.Flows[1].Faults
	if clean != (FaultCounters{}) {
		t.Errorf("clean flow has fault counters %+v", clean)
	}
}

// TestFaultsDeterministic: the loss-gate pipeline is a pure function of
// the seed.
func TestFaultsDeterministic(t *testing.T) {
	run := func() *Result {
		cfg, specs := faultySpecs()
		return New(cfg, specs...).Run(8 * time.Second)
	}
	a, b := run(), run()
	for i := range a.Flows {
		if !reflect.DeepEqual(a.Flows[i].Stat, b.Flows[i].Stat) {
			t.Errorf("flow %d stats diverged:\n%+v\n%+v", i, a.Flows[i].Stat, b.Flows[i].Stat)
		}
		if a.Flows[i].Faults != b.Flows[i].Faults {
			t.Errorf("flow %d fault counters diverged: %+v vs %+v",
				i, a.Flows[i].Faults, b.Flows[i].Faults)
		}
	}
	if !reflect.DeepEqual(a.Ledger, b.Ledger) {
		t.Errorf("ledgers diverged:\n%+v\n%+v", a.Ledger, b.Ledger)
	}
}

// TestGuardsPreserveRealization is the bit-identity acceptance case: the
// guard layer reads counters but never steers, schedules or emits, so
// results must be identical with guards on or off — flow statistics, the
// ledger and the whole obs snapshot, event-loop gauges and emission
// tallies included.
func TestGuardsPreserveRealization(t *testing.T) {
	run := func(g *guard.Options) *Result {
		cfg, specs := faultySpecs()
		cfg.Guard = g
		return New(cfg, specs...).Run(10 * time.Second)
	}
	off := run(nil)
	on := run(&guard.Options{})
	if on.Guard == nil {
		t.Fatal("guarded run has no report")
	}
	for i := range off.Flows {
		if !reflect.DeepEqual(off.Flows[i].Stat, on.Flows[i].Stat) {
			t.Errorf("flow %d stats differ with guards on:\n off %+v\n on  %+v",
				i, off.Flows[i].Stat, on.Flows[i].Stat)
		}
		if off.Flows[i].Faults != on.Flows[i].Faults {
			t.Errorf("flow %d fault counters differ with guards on", i)
		}
	}
	if !reflect.DeepEqual(off.Ledger, on.Ledger) {
		t.Errorf("ledger differs with guards on")
	}
	if !reflect.DeepEqual(off.Obs, on.Obs) {
		t.Errorf("obs snapshots differ with guards on:\n off %+v\n on  %+v", off.Obs, on.Obs)
	}
	if off.Dropped != on.Dropped || off.Delivered != on.Delivered || off.MaxQueue != on.MaxQueue {
		t.Errorf("link totals differ with guards on")
	}
}

// outage is a forward-path delay policy that withholds delivery over
// [2.5s, 6.5s) and [8.5s, 12.5s): a packet reaching it inside a window is
// held until the window closes, one outside passes at once.
type outage struct{}

var outageWindows = [][2]time.Duration{
	{2500 * time.Millisecond, 6500 * time.Millisecond},
	{8500 * time.Millisecond, 12500 * time.Millisecond},
}

func (outage) Delay(now time.Duration, _ int64) time.Duration {
	for _, w := range outageWindows {
		if now >= w[0] && now < w[1] {
			return w[1] - now
		}
	}
	return 0
}

func (outage) Bound() time.Duration { return 4 * time.Second }

// outageConfig is a guarded single Vegas flow with Rm = 1 ms, so
// guard.StallAfter is 1 s, whose forward path delivers nothing during the
// two outage windows. The packets it holds all arrive as each window
// closes.
func outageConfig() (Config, FlowSpec) {
	spec := vegasSpec("outage")
	spec.Rm = time.Millisecond
	spec.FwdJitter = outage{}
	return Config{Rate: units.Mbps(12), Seed: 3, Guard: &guard.Options{}}, spec
}

// TestStallLatchesPerEpisode pins the stall check's timing and latch. The
// check runs on whole virtual seconds and sees only whether the receiver
// count moved since the previous check. In each outage the last check to
// see it move is the first one after delivery stopped (3s, then 9s),
// so the flag comes at the first check more than 1 s after that one (5s,
// then 11s), not 1 s after the last delivery. The check at 6s (and 12s)
// finds the flow still stalled and stays quiet; progress at 7s re-arms
// the latch for the second episode.
func TestStallLatchesPerEpisode(t *testing.T) {
	if guard.CheckEvery%sampleEvery != 0 {
		t.Fatalf("guard.CheckEvery %v is not a multiple of the sample tick %v", guard.CheckEvery, sampleEvery)
	}
	cfg, spec := outageConfig()
	res := New(cfg, spec).Run(14 * time.Second)
	want := []guard.Violation{
		{Kind: "stall", Flow: 0, At: 5 * time.Second, Msg: "no delivery since the check at 3s (threshold 1s)"},
		{Kind: "stall", Flow: 0, At: 11 * time.Second, Msg: "no delivery since the check at 9s (threshold 1s)"},
	}
	if !reflect.DeepEqual(res.Guard.Violations, want) {
		t.Errorf("violations:\n got %v\nwant %v", res.Guard.Violations, want)
	}
}

// TestStallMeasuredFromStartAt: a flow that never delivers is measured
// from its StartAt, so nothing is flagged while it has not started — here
// for 5 s, five times its threshold — and it trips at the first check
// more than 1 s after its start. A healthy flow alongside never trips.
func TestStallMeasuredFromStartAt(t *testing.T) {
	late := vegasSpec("late-blackhole")
	late.Rm = time.Millisecond
	late.LossProb = 1
	late.StartAt = 5 * time.Second
	healthy := vegasSpec("healthy")
	healthy.Rm = time.Millisecond
	res := New(Config{Rate: units.Mbps(12), Seed: 1, Guard: &guard.Options{}}, late, healthy).Run(10 * time.Second)
	want := []guard.Violation{
		{Kind: "stall", Flow: 0, At: 7 * time.Second, Msg: "no delivery since it started at 5s (threshold 1s)"},
	}
	if !reflect.DeepEqual(res.Guard.Violations, want) {
		t.Errorf("violations:\n got %v\nwant %v", res.Guard.Violations, want)
	}
}

// TestSessionStallStateResets: the stall state lives on the recycled
// flows, so a stalled run followed by a clean one on the same session
// must report nothing the second time, and the stalled run repeated must
// report exactly what it did first.
func TestSessionStallStateResets(t *testing.T) {
	s := NewSession()
	run := func(withOutage bool) *guard.Report {
		t.Helper()
		cfg, spec := outageConfig()
		if !withOutage {
			spec.FwdJitter = nil
		}
		res, err := s.Run(cfg, 14*time.Second, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res.Guard
	}
	first := run(true)
	if first.Ok() {
		t.Fatal("outage run reported no stall")
	}
	if clean := run(false); !clean.Ok() {
		t.Errorf("clean run after a stalled one on the same session: %s", clean)
	}
	if again := run(true); !reflect.DeepEqual(again, first) {
		t.Errorf("stalled run repeated on the session:\n got %s\nwant %s", again, first)
	}
}
