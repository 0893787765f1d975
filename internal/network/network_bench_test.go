package network

import (
	"math/rand"
	"testing"
	"time"

	"starvation/internal/cca"
	_ "starvation/internal/cca/bbr"
	_ "starvation/internal/cca/copa"
	_ "starvation/internal/cca/cubic"
	"starvation/internal/cca/reno"
	"starvation/internal/cca/vegas"
	"starvation/internal/endpoint"
	"starvation/internal/obs"
	"starvation/internal/units"
)

// The emulator's hot-path workloads. Each constructor returns one run: an
// emulated second whose result it hands back. TestHotPathBudget holds every
// run to an allocation ceiling and an exact delivered-packet count; the
// Benchmark of the same name times the same run for profiling by hand.

// nopProbe is an enabled probe that discards every event: it measures the
// pure dispatch overhead of instrumentation.
type nopProbe struct{}

func (nopProbe) Emit(obs.Event) {}

func twoVegas() []FlowSpec {
	return []FlowSpec{
		{Alg: vegas.New(vegas.Config{}), Rm: 50 * time.Millisecond},
		{Alg: vegas.New(vegas.Config{}), Rm: 50 * time.Millisecond},
	}
}

// emulatedSecond is end-to-end emulator cost on a network built for the
// run: what one simulated second of a loaded two-flow path (two Vegas
// flows, 100 Mbit/s) costs. cfg carries only the run's observers, if any:
// Telemetry turns the flight recorder on (windowed sampler, episode
// detector, phase machine, and the RTT/fault emissions it unlocks), Probe
// the event stream.
func emulatedSecond(cfg Config) func() *Result {
	cfg.Rate, cfg.Seed = units.Mbps(100), 1
	return func() *Result { return New(cfg, twoVegas()...).Run(time.Second) }
}

// sweepThroughput is the sweep hot path: the emulatedSecond workload run
// back-to-back through one recycled Session with seeds cycling over a
// 100-seed sweep, exactly as the sweep drivers do. What still allocates is
// flow-spec plumbing, result detachment and the per-run trace clones —
// compare emulatedSecond, which pays full network construction every run.
func sweepThroughput(tb testing.TB) func() *Result {
	s := NewSession()
	i := 0
	run := func() *Result {
		res, err := s.Run(Config{Rate: units.Mbps(100), Seed: int64(1 + i%100)}, time.Second, twoVegas()...)
		if err != nil {
			tb.Fatal(err)
		}
		i++
		return res
	}
	run() // build the cached network: every later run is a recycled one
	return run
}

// lossyPopulation is the loss-recovery counterpart of sweepThroughput,
// whose two Vegas flows never lose a packet: 32 flows of four CCAs (Reno,
// Cubic, BBR, Copa; 40 ms) share 100 Mbit/s through a 64-packet drop-tail
// buffer for one emulated second at a fixed seed, run back-to-back through
// one recycled Session. The buffer overflows throughout, so the time goes
// to the sender's scoreboard — SACK bookkeeping, loss detection,
// retransmission queue, RTO sweeps — and to drop-tail itself: the regime
// where a 5x regression once sat unnoticed behind loss-free workloads.
func lossyPopulation(tb testing.TB) func() *Result {
	s := NewSession()
	specs := make([]FlowSpec, 32)
	run := func() *Result {
		for i := range specs {
			fs := FlowSpec{Rm: 40 * time.Millisecond}
			switch i % 4 {
			case 0:
				fs.Alg = reno.New(reno.Config{})
			case 1:
				fs.Alg = cca.Lookup("cubic")(endpoint.DefaultMSS, nil)
			case 2:
				fs.Alg = cca.Lookup("bbr")(endpoint.DefaultMSS, rand.New(rand.NewSource(1)))
			case 3:
				fs.Alg = cca.Lookup("copa")(endpoint.DefaultMSS, nil)
			}
			specs[i] = fs
		}
		res, err := s.Run(Config{Rate: units.Mbps(100), BufferBytes: 64 * 1500, Seed: 1}, time.Second, specs...)
		if err != nil {
			tb.Fatal(err)
		}
		if res.Dropped == 0 {
			tb.Fatal("no packet was dropped: the workload would not exercise loss recovery")
		}
		return res
	}
	run() // build the cached network
	return run
}

// TestHotPathBudget is the emulator's allocation and determinism gate. The
// per-packet path allocates nothing, so each ceiling bounds per-run
// construction — the count measured when the workload's allocations last
// changed (140 / 160 / 34 / 596; go1.24 reads 141 / 161 / 35 / 596 today,
// give or take one, and up to 143 / 162 / 37 / 615 under -race) plus a
// quarter — and one allocation per packet overshoots any of them several
// times over. A delivered count that moves means the realization itself
// changed: events fired in another order, an observer that injected
// something. Nothing in the two-Vegas runs draws on the seed, and the
// flight recorder and the session only observe and recycle, so all three
// are held to one count.
func TestHotPathBudget(t *testing.T) {
	const twoVegasDelivered = 3908
	for _, w := range []struct {
		name      string
		run       func() *Result
		maxAllocs float64
		delivered int64
	}{
		{"EmulatedSecond", emulatedSecond(Config{}), 175, twoVegasDelivered},
		{"EmulatedSecondTelemetry", emulatedSecond(Config{Telemetry: &TelemetryConfig{}}), 200, twoVegasDelivered},
		{"SweepThroughput", sweepThroughput(t), 42, twoVegasDelivered},
		{"LossyPopulation", lossyPopulation(t), 745, 6751},
	} {
		var res *Result
		allocs := testing.AllocsPerRun(5, func() { res = w.run() })
		if allocs > w.maxAllocs {
			t.Errorf("%s: %v allocations per run, budget %v", w.name, allocs, w.maxAllocs)
		}
		if res.Delivered != w.delivered {
			t.Errorf("%s: delivered %d packets, want exactly %d", w.name, res.Delivered, w.delivered)
		}
		t.Logf("%s: %v allocs/run, %d delivered, %d dropped", w.name, allocs, res.Delivered, res.Dropped)
	}
}

func benchRun(b *testing.B, run func() *Result) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkEmulatedSecond(b *testing.B)  { benchRun(b, emulatedSecond(Config{})) }
func BenchmarkSweepThroughput(b *testing.B) { benchRun(b, sweepThroughput(b)) }
func BenchmarkLossyPopulation(b *testing.B) { benchRun(b, lossyPopulation(b)) }
func BenchmarkEmulatedSecondTelemetry(b *testing.B) {
	benchRun(b, emulatedSecond(Config{Telemetry: &TelemetryConfig{}}))
}

// BenchmarkNoopProbe bounds the cost of the observability layer on the
// emulatedSecond workload:
//
//	disabled — Probe nil, the default for every existing scenario: pure
//	           instrumentation-plumbing overhead (budget: ≤ 5%).
//	noop     — an enabled probe that discards events: the dispatch cost
//	           of the event stream itself.
//	registry — events folded into the counters registry, the cheapest
//	           useful consumer.
func BenchmarkNoopProbe(b *testing.B) {
	b.Run("disabled", func(b *testing.B) { benchRun(b, emulatedSecond(Config{})) })
	b.Run("noop", func(b *testing.B) { benchRun(b, emulatedSecond(Config{Probe: nopProbe{}})) })
	b.Run("registry", func(b *testing.B) { benchRun(b, emulatedSecond(Config{Probe: obs.NewRegistry()})) })
}

// BenchmarkPacketRate measures raw packet-forwarding throughput of the
// assembled path (sender → queue → propagation → jitter → receiver → ack).
func BenchmarkPacketRate(b *testing.B) {
	n := New(
		Config{Rate: units.Gbps(1), Seed: 1},
		FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 10 * time.Millisecond},
	)
	for _, f := range n.Flows {
		n.Sim.At(f.Spec.StartAt, f.Sender.Start)
	}
	// Warm to steady state.
	n.Sim.Run(2 * time.Second)
	start := n.Link.Delivered
	b.ResetTimer()
	b.ReportAllocs()
	target := 2*time.Second + time.Duration(b.N)*time.Millisecond
	n.Sim.Run(target)
	b.StopTimer()
	if n.Link.Delivered == start && b.N > 1000 {
		b.Fatal("no packets flowed")
	}
}
