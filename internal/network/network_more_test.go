package network

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"starvation/internal/cca"
	"starvation/internal/cca/reno"
	"starvation/internal/cca/vegas"
	_ "starvation/internal/cca/vivace"
	"starvation/internal/endpoint"
	"starvation/internal/netem/faults"
	"starvation/internal/netem/jitter"
	"starvation/internal/rng"
	"starvation/internal/units"
)

func TestDeterministicRuns(t *testing.T) {
	run := func() *Result {
		n := New(
			Config{Rate: units.Mbps(24), BufferBytes: 60 * 1500, Seed: 42},
			FlowSpec{Name: "a", Alg: reno.New(reno.Config{}), Rm: 50 * time.Millisecond,
				FwdJitter: &jitter.Uniform{Max: 3 * time.Millisecond, Rng: rand.New(rand.NewSource(9))}},
			FlowSpec{Name: "b", Alg: vegas.New(vegas.Config{}), Rm: 70 * time.Millisecond},
		)
		return n.Run(10 * time.Second)
	}
	r1, r2 := run(), run()
	for i := range r1.Flows {
		if r1.Flows[i].Stat.AckedBytes != r2.Flows[i].Stat.AckedBytes {
			t.Errorf("flow %d acked bytes differ across identical runs: %d vs %d",
				i, r1.Flows[i].Stat.AckedBytes, r2.Flows[i].Stat.AckedBytes)
		}
		if r1.Flows[i].Stat.LossEvents != r2.Flows[i].Stat.LossEvents {
			t.Errorf("flow %d loss events differ: %d vs %d",
				i, r1.Flows[i].Stat.LossEvents, r2.Flows[i].Stat.LossEvents)
		}
	}
}

func TestStaggeredStartConverges(t *testing.T) {
	n := New(
		Config{Rate: units.Mbps(24), Seed: 1},
		FlowSpec{Name: "early", Alg: vegas.New(vegas.Config{}), Rm: 60 * time.Millisecond},
		FlowSpec{Name: "late", Alg: vegas.New(vegas.Config{}), Rm: 60 * time.Millisecond,
			StartAt: 10 * time.Second},
	)
	res := n.Run(60 * time.Second)
	if j := res.Jain(); j < 0.9 {
		t.Errorf("late joiner did not converge to fair share: jain %.3f\n%s", j, res)
	}
}

func TestPerFlowLossGatesIndependent(t *testing.T) {
	// Adding a loss gate to flow 1 must not change flow 0's loss pattern:
	// each gate derives its own RNG from the seed and flow index.
	run := func(withSecond bool) int64 {
		specs := []FlowSpec{{
			Name: "lossy0", Alg: reno.New(reno.Config{}),
			Rm: 40 * time.Millisecond, LossProb: 0.01,
		}}
		if withSecond {
			specs = append(specs, FlowSpec{
				Name: "lossy1", Alg: reno.New(reno.Config{}),
				Rm: 40 * time.Millisecond, LossProb: 0.05,
			})
		}
		n := New(Config{Rate: units.Mbps(50), Seed: 3}, specs...)
		res := n.Run(5 * time.Second)
		return res.Flows[0].Stat.SentBytes
	}
	// Flow 0's own gate decisions must be identical; its *behaviour* will
	// differ because it shares the link, so compare only the gate RNG
	// stream indirectly: same seed+index yields the same generator.
	newDerivedRand := func(seed int64, flow int) *rand.Rand {
		return rng.New(rng.Derive(seed, flow, rng.Gate))
	}
	a := newDerivedRand(3, 0)
	b := newDerivedRand(3, 0)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("derived rand not deterministic")
		}
	}
	c := newDerivedRand(3, 1)
	same := true
	d := newDerivedRand(3, 0)
	for i := 0; i < 10; i++ {
		if c.Float64() != d.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different flow indices produced the same gate stream")
	}
	_ = run
}

func TestAckPathJitter(t *testing.T) {
	// Jitter on the ACK path raises measured RTTs just like data-path
	// jitter: the sender cannot tell the difference (the paper's point).
	mk := func(ackJitter jitter.Policy) *Result {
		n := New(
			Config{Rate: units.Mbps(24), Seed: 1},
			FlowSpec{Name: "f", Alg: vegas.New(vegas.Config{}),
				Rm: 60 * time.Millisecond, AckJitter: ackJitter},
		)
		return n.Run(10 * time.Second)
	}
	clean := mk(nil)
	jittered := mk(jitter.Constant{D: 10 * time.Millisecond})
	dClean := clean.Flows[0].Stat.MinRTT
	dJit := jittered.Flows[0].Stat.MinRTT
	if dJit-dClean < 9*time.Millisecond {
		t.Errorf("ACK jitter invisible in RTT: clean %v vs jittered %v", dClean, dJit)
	}
}

// thresholdMarker marks every packet arriving above a fixed queue depth —
// the "simple threshold-based heuristic" of §6.4.
type thresholdMarker struct{ bytes int }

func (t thresholdMarker) Mark(queuedBytes int) bool { return queuedBytes >= t.bytes }

func TestThresholdMarkerMarksAndReacts(t *testing.T) {
	// An ECN-reacting Reno on a deep queue holds the queue near the mark
	// threshold instead of the full buffer (§6.4's direction).
	n := New(
		Config{Rate: units.Mbps(12), BufferBytes: 300 * 1500,
			Marker: thresholdMarker{bytes: 20 * 1500}, Seed: 1},
		FlowSpec{Name: "ecn", Alg: reno.New(reno.Config{ReactToECN: true}),
			Rm: 40 * time.Millisecond},
	)
	res := n.Run(20 * time.Second)
	if res.Dropped != 0 {
		t.Errorf("drops with ECN reaction on deep buffer: %d", res.Dropped)
	}
	// The fixed-seed realization marks exactly this many packets.
	if m := res.Obs.Global.PacketsMarked; m != 772 || n.Link.Marked != m {
		t.Errorf("marked %d (link %d), want 772", m, n.Link.Marked)
	}
	// Queue must stay well below the physical buffer.
	if q, ok := res.QueueTrace.Mean(10*time.Second, 20*time.Second); !ok || q > 60*1500 {
		t.Errorf("mean queue %v bytes, want bounded near the 30000B threshold", q)
	}
	if res.Utilization() < 0.85 {
		t.Errorf("utilization %.3f", res.Utilization())
	}
}

func TestRateBasedFlowNeedsNoWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := New(
		Config{Rate: units.Mbps(24), Seed: 1},
		FlowSpec{Name: "pcc", Alg: cca.Lookup("vivace")(endpoint.DefaultMSS, rng),
			Rm: 40 * time.Millisecond},
	)
	res := n.Run(20 * time.Second)
	if res.Utilization() < 0.7 {
		t.Errorf("rate-based flow utilization %.3f, want >= 0.7\n%s", res.Utilization(), res)
	}
}

func TestManyFlowsShareFairly(t *testing.T) {
	specs := make([]FlowSpec, 6)
	for i := range specs {
		specs[i] = FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 60 * time.Millisecond}
	}
	n := New(Config{Rate: units.Mbps(48), Seed: 1}, specs...)
	res := n.Run(60 * time.Second)
	if j := res.Jain(); j < 0.9 {
		t.Errorf("6-flow jain = %.3f\n%s", j, res)
	}
	if res.Utilization() < 0.9 {
		t.Errorf("6-flow utilization %.3f", res.Utilization())
	}
	// The theory predicts RTT = Rm + n·α/C with n=6.
	want := 60*time.Millisecond + time.Duration(6*4*1500*8*1e9/48e6)
	mean := res.Flows[0].Stat.MeanRTT
	if mean < 60*time.Millisecond || mean > want+4*time.Millisecond {
		t.Errorf("6-flow mean RTT %v, want near %v", mean, want)
	}
}

func TestRunWindowStats(t *testing.T) {
	n := New(
		Config{Rate: units.Mbps(12), Seed: 1},
		FlowSpec{Name: "f", Alg: vegas.New(vegas.Config{}), Rm: 50 * time.Millisecond},
	)
	res := n.RunWindow(10*time.Second, 8*time.Second, 10*time.Second)
	if res.WindowFrom != 8*time.Second || res.WindowTo != 10*time.Second {
		t.Error("window bounds not propagated")
	}
	// In the final 2s the flow is at equilibrium: steady ≈ link rate.
	if res.Flows[0].Stat.SteadyThpt < units.Mbps(11) {
		t.Errorf("steady thpt %v", res.Flows[0].Stat.SteadyThpt)
	}
}

func TestInvalidConfigsPanic(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("zero rate", func() {
		New(Config{}, FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: time.Millisecond})
	})
	assertPanics("missing CCA", func() {
		New(Config{Rate: units.Mbps(1)}, FlowSpec{Rm: time.Millisecond})
	})
	assertPanics("missing Rm", func() {
		New(Config{Rate: units.Mbps(1)}, FlowSpec{Alg: vegas.New(vegas.Config{})})
	})
}

// TestFlowSpecGEEmptyAndValidate pins the optional GE field of a FlowSpec:
// nil is valid and puts no gate on the flow's path, a valid config puts
// one there, and an invalid config is refused before any wiring.
func TestFlowSpecGEEmptyAndValidate(t *testing.T) {
	cfg := Config{Rate: units.Mbps(10)}
	spec := FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 10 * time.Millisecond}
	n, err := NewChecked(cfg, spec)
	if err != nil {
		t.Fatalf("nil GE refused: %v", err)
	}
	if n.Flows[0].ge != nil || chainOf(spec)&chainGE != 0 {
		t.Errorf("nil GE must leave the gate out of the flow's path")
	}

	spec.GE = &faults.GEConfig{PGoodToBad: 0.01, PBadToGood: 0.2, PDropBad: 0.5}
	if n, err = NewChecked(cfg, spec); err != nil {
		t.Fatalf("valid GE refused: %v", err)
	}
	if n.Flows[0].ge == nil || chainOf(spec)&chainGE == 0 {
		t.Errorf("valid GE must put a gate on the flow's path")
	}

	spec.GE = &faults.GEConfig{PGoodToBad: 2}
	if _, err = NewChecked(cfg, spec); err == nil || !strings.Contains(err.Error(), "ge:") {
		t.Errorf("invalid GE: err = %v, want a ge: error", err)
	}
}

func TestDelayedAckKeepsThroughput(t *testing.T) {
	// Delayed ACKs alone (single flow, no competition) must not tank
	// throughput: the sender's bursts still fill the pipe.
	n := New(
		Config{Rate: units.Mbps(12), Seed: 1},
		FlowSpec{Name: "delack", Alg: reno.New(reno.Config{}), Rm: 50 * time.Millisecond,
			Ack: endpoint.AckConfig{DelayCount: 4, DelayTimeout: 100 * time.Millisecond}},
	)
	res := n.Run(20 * time.Second)
	if res.Utilization() < 0.85 {
		t.Errorf("delayed-ACK single flow utilization %.3f\n%s", res.Utilization(), res)
	}
}
