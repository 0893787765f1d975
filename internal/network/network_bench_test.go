package network

import (
	"testing"
	"time"

	"starvation/internal/cca/bbr"
	"starvation/internal/cca/copa"
	"starvation/internal/cca/cubic"
	"starvation/internal/cca/reno"
	"starvation/internal/cca/vegas"
	"starvation/internal/units"
)

// BenchmarkEmulatedSecond measures end-to-end emulator speed: how much
// wall-clock time one simulated second of a loaded two-flow path costs.
// The figure-regeneration harness simulates tens of minutes of virtual
// time; this bench is its unit cost.
func BenchmarkEmulatedSecond(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := New(
			Config{Rate: units.Mbps(100), Seed: 1},
			FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 50 * time.Millisecond},
			FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 50 * time.Millisecond},
		)
		res := n.Run(time.Second)
		pkts := float64(res.Delivered)
		b.ReportMetric(pkts, "pkts/simsec")
	}
}

// BenchmarkEmulatedSecondTelemetry is the same workload with the flight
// recorder on: windowed sampler, episode detector, phase machine, and the
// RTT/fault emissions the recorder unlocks. benchcheck pins its ns/op
// within tolerance of its own baseline and its pkts/simsec exactly equal
// to BenchmarkEmulatedSecond's — the realization must not move.
func BenchmarkEmulatedSecondTelemetry(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := New(
			Config{Rate: units.Mbps(100), Seed: 1, Telemetry: &TelemetryConfig{}},
			FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 50 * time.Millisecond},
			FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 50 * time.Millisecond},
		)
		res := n.Run(time.Second)
		pkts := float64(res.Delivered)
		b.ReportMetric(pkts, "pkts/simsec")
	}
}

// BenchmarkSweepThroughput measures the sweep hot path: the
// BenchmarkEmulatedSecond workload (two Vegas flows, 100 Mbit/s, one
// emulated second) run back-to-back through one recycled Session with
// seeds cycling over a 100-seed sweep, exactly as the sweep drivers do.
// allocs/op is the per-run allocation cost with arena recycling on —
// compare BenchmarkEmulatedSecond, which pays full network construction
// every run. The flowsec/sec metric is emulated flow-seconds per wall
// second (per core: the loop is single-threaded).
func BenchmarkSweepThroughput(b *testing.B) {
	s := NewSession()
	run := func(seed int64) *Result {
		res, err := s.Run(
			Config{Rate: units.Mbps(100), Seed: seed},
			time.Second,
			FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 50 * time.Millisecond},
			FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 50 * time.Millisecond},
		)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	// Warm pass: build the cached network once so the timed loop measures
	// recycled runs, which is what every sweep iteration after the first is.
	run(1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run(int64(1 + i%100))
	}
	b.StopTimer()
	b.ReportMetric(2*float64(b.N)/b.Elapsed().Seconds(), "flowsec/sec")
}

// BenchmarkLossyPopulation is the loss-recovery counterpart of
// BenchmarkSweepThroughput, whose two Vegas flows never lose a packet: 32
// flows of four CCAs (Reno, Cubic, BBR, Copa; 40 ms) share 100 Mbit/s
// through a 64-packet drop-tail buffer for one emulated second, run
// back-to-back through one recycled Session. The buffer overflows
// throughout, so the time goes to the sender's scoreboard — SACK
// bookkeeping, loss detection, retransmission queue, RTO sweeps — and to
// drop-tail itself. The seed is fixed so pkts/simsec is the realization's
// determinism check, as in BenchmarkEmulatedSecond.
func BenchmarkLossyPopulation(b *testing.B) {
	s := NewSession()
	specs := make([]FlowSpec, 32)
	run := func() *Result {
		for i := range specs {
			fs := FlowSpec{Rm: 40 * time.Millisecond}
			switch i % 4 {
			case 0:
				fs.Alg = reno.New(reno.Config{})
			case 1:
				fs.Alg = cubic.New(cubic.Config{})
			case 2:
				fs.Alg = bbr.New(bbr.Config{})
			case 3:
				fs.Alg = copa.New(copa.Config{})
			}
			specs[i] = fs
		}
		res, err := s.Run(Config{Rate: units.Mbps(100), BufferBytes: 64 * 1500, Seed: 1}, time.Second, specs...)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	if res := run(); res.Dropped == 0 { // also the warm pass that builds the cached network
		b.Fatal("no packet was dropped: the benchmark would not exercise loss recovery")
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(run().Delivered), "pkts/simsec")
	}
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
