package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"starvation/internal/cca"
	"starvation/internal/cca/constwnd"
	"starvation/internal/cca/vegas"
	"starvation/internal/core"
	"starvation/internal/endpoint"
	"starvation/internal/guard"
	"starvation/internal/metrics"
	"starvation/internal/netem"
	"starvation/internal/netem/faults"
	"starvation/internal/netem/jitter"
	"starvation/internal/network"
	"starvation/internal/obs"
	"starvation/internal/obs/detect"
	"starvation/internal/obs/timeseries"
	"starvation/internal/packet"
	"starvation/internal/runner"
	"starvation/internal/scenario"
	"starvation/internal/service"
	"starvation/internal/sim"
	"starvation/internal/trace"
	"starvation/internal/units"
)

// ledger runs the isolated layer drivers: each times one layer's public
// functions in a loop, away from every other layer, and reports the median
// of a few rounds. The same ledger runs in every traced run, whatever the
// named workload, so a layer's unit cost and a workload's counts are
// always taken by the same process on the same machine.
type ledger struct {
	seed    int64
	scratch string
	ms      metricSet
	checks  []check
	// n scales every driver's iteration count; the smoke test runs the
	// ledger at a fraction of the size the benchmark uses.
	n func(full int) int
}

const ledgerRounds = 5

func (l *ledger) ns(name string, n int, fn func(i int)) {
	l.ms.putNote(name, "ns", timeLoop(ledgerRounds, l.n(n), fn), "ledger")
}

func (l *ledger) us(name string, n int, fn func(i int)) {
	l.ms.putNote(name, "us", timeLoop(ledgerRounds, l.n(n), fn)/1e3, "ledger")
}

func (l *ledger) fail(name string, err error) {
	l.checks = append(l.checks, check{Name: name, OK: false, Info: err.Error()})
}

func (l *ledger) run() {
	l.simDrivers()
	l.netemDrivers()
	l.endpointDrivers()
	l.ccaDrivers()
	l.obsDrivers()
	l.networkDrivers()
	l.scenarioCoreDrivers()
	l.runnerDrivers()
	l.serviceDrivers()
}

func nop() {}

func (l *ledger) simDrivers() {
	s := sim.New(1)
	l.ns("sim.schedule_fire_ns", 400000, func(int) {
		s.After(time.Microsecond, nop)
		s.Step()
	})
	const depth = 10000
	deep := sim.New(1)
	for i := 0; i < depth; i++ {
		deep.At(time.Duration(i)*time.Millisecond, nop)
	}
	l.ns("sim.deep_queue_ns", 200000, func(i int) {
		deep.At(time.Duration(depth+i)*time.Millisecond, nop)
		deep.Step()
	})
	c := sim.New(1)
	l.ns("sim.cancel_ns", 400000, func(int) {
		c.After(time.Millisecond, nop).Cancel()
	})
	// Reset walks the arena, so its cost is per high-water mark: here the
	// 10 000 records the deep queue left behind.
	l.us("sim.reset_us", 400, func(i int) { deep.Reset(int64(i)) })
}

func (l *ledger) netemDrivers() {
	pkt := packet.Packet{Size: endpoint.DefaultMSS}
	drop := func(packet.Packet) {}
	dropAck := func(packet.Ack) {}

	s := sim.New(1)
	link := netem.NewLink(s, units.Gbps(1), 0, drop)
	l.ns("netem.link_pkt_ns", 200000, func(i int) {
		pkt.Seq = int64(i)
		link.Enqueue(pkt)
		s.Step()
	})
	// One packet occupies the one-packet buffer for ever (nothing steps
	// the simulator), so every further Enqueue takes the drop-tail path.
	full := netem.NewLink(sim.New(1), units.Mbps(1), endpoint.DefaultMSS, drop)
	full.Enqueue(pkt)
	l.ns("netem.link_drop_ns", 400000, func(int) { full.Enqueue(pkt) })
	if full.Dropped == 0 {
		l.fail("netem.link_drop_ns exercised the drop path", fmt.Errorf("no drops"))
	}

	s2 := sim.New(1)
	box := netem.NewDelayBox(s2, jitter.Constant{D: time.Millisecond}, drop)
	l.ns("netem.delaybox_pkt_ns", 200000, func(int) {
		box.Send(pkt)
		s2.Step()
	})
	s3 := sim.New(1)
	abox := netem.NewAckDelayBox(s3, jitter.Constant{D: time.Millisecond}, dropAck)
	l.ns("netem.ackbox_ack_ns", 200000, func(int) {
		abox.Send(packet.Ack{})
		s3.Step()
	})

	gate := netem.NewLossGate(0.02, rand.New(rand.NewSource(l.seed)), drop)
	l.ns("netem.lossgate_pkt_ns", 400000, func(int) { gate.Send(pkt) })
	ge := faults.NewGEGate(faults.GEConfig{PGoodToBad: 0.01, PBadToGood: 0.2, PDropBad: 0.5},
		rand.New(rand.NewSource(l.seed)), drop)
	l.ns("netem.ge_pkt_ns", 400000, func(int) { ge.Send(pkt) })
	s4 := sim.New(1)
	ro := faults.NewReorderer(faults.ReorderConfig{P: 0.05, Delay: time.Millisecond},
		rand.New(rand.NewSource(l.seed)), s4, drop)
	l.ns("netem.reorder_pkt_ns", 400000, func(int) {
		ro.Send(pkt)
		if s4.Pending() > 0 {
			s4.Step()
		}
	})
	dup := faults.NewDuplicator(faults.DupConfig{P: 0.05}, rand.New(rand.NewSource(l.seed)), drop)
	l.ns("netem.dup_pkt_ns", 400000, func(int) { dup.Send(pkt) })

	uni := &jitter.Uniform{Max: 10 * time.Millisecond, Rng: rand.New(rand.NewSource(l.seed))}
	l.ns("netem.jitter_delay_ns", 400000, func(i int) { uni.Delay(time.Duration(i), int64(i)) })
}

// endpointLoop runs one sender against one receiver with a millisecond of
// scheduled delay each way and nothing else on the path, dropping every
// dropEvery-th data packet (0 = none), and returns wall ns per ACK.
func endpointLoop(emu time.Duration, dropEvery int) float64 {
	s := sim.New(1)
	var snd *endpoint.Sender
	var rcv *endpoint.Receiver
	n := 0
	toRcv := func(p packet.Packet) { rcv.OnPacket(p) }
	toSnd := func(a packet.Ack) { snd.OnAck(a) }
	rcv = endpoint.NewReceiver(s, 0, endpoint.AckConfig{}, func(a packet.Ack) {
		s.AfterAck(time.Millisecond, toSnd, a)
	})
	snd = endpoint.NewSender(s, 0, constwnd.New(endpoint.DefaultMSS, 10), endpoint.DefaultMSS, func(p packet.Packet) {
		n++
		if dropEvery > 0 && n%dropEvery == 0 {
			return
		}
		s.AfterPacket(time.Millisecond, toRcv, p)
	})
	snd.Start()
	t0 := time.Now()
	s.Run(emu)
	wall := time.Since(t0)
	if snd.AcksReceived == 0 {
		return 0
	}
	return float64(wall) / float64(snd.AcksReceived)
}

func (l *ledger) endpointDrivers() {
	emu := time.Duration(l.n(40)) * time.Second
	var clean, lossy []float64
	for r := 0; r < ledgerRounds; r++ {
		clean = append(clean, endpointLoop(emu, 0))
		lossy = append(lossy, endpointLoop(emu, 50))
	}
	l.ms.putNote("endpoint.loop_pkt_ns", "ns", median(clean), "ledger")
	l.ms.putNote("endpoint.lossy_loop_pkt_ns", "ns", median(lossy), "ledger")
}

// ccaFlowLife is how long a CCA instance lives in the isolated driver
// before a fresh one replaces it: the emulated length of a pop_500 flow.
// Costs that only appear in older flows do not show (README, known
// defects: BBR's delivery history).
const ccaFlowLife = 8 * time.Second

// ccaDrivers feeds every registered CCA a seeded synthetic ACK stream
// (1 ms apart — a 12 Mbit/s flow — RTT 40 ms plus up to 10 ms of jitter,
// one MSS each), calling OnTick at the CCA's own interval and OnSend per
// segment where the CCA implements them, and reports wall ns per ACK.
func (l *ledger) ccaDrivers() {
	rng := rand.New(rand.NewSource(l.seed))
	rtts := make([]time.Duration, 4096)
	for i := range rtts {
		rtts[i] = 40*time.Millisecond + time.Duration(rng.Int63n(int64(10*time.Millisecond)))
	}
	const (
		mss     = endpoint.DefaultMSS
		spacing = time.Millisecond
		life    = int(ccaFlowLife / spacing)
	)
	for _, name := range cca.Names() {
		var alg cca.Algorithm
		var ticker cca.Ticker
		var sender cca.SendObserver
		var nextTick time.Duration
		l.ns("cca."+name+".on_ack_ns", 20000, func(i int) {
			now := time.Duration(i%life+1) * spacing
			if i%life == 0 {
				alg = cca.Lookup(name)(mss, rand.New(rand.NewSource(l.seed)))
				ticker, _ = alg.(cca.Ticker)
				sender, _ = alg.(cca.SendObserver)
				nextTick = 0
			}
			if sender != nil {
				sender.OnSend(cca.SendSignal{Now: now, Bytes: mss, Seq: int64(i%life) * mss})
			}
			if ticker != nil && now >= nextTick {
				if nextTick > 0 {
					ticker.OnTick(now)
				}
				iv := ticker.TickInterval()
				if iv <= 0 {
					iv = spacing
				}
				nextTick = now + iv
			}
			alg.OnAck(cca.AckSignal{
				Now: now, RTT: rtts[i&4095], AckedBytes: mss, DeliveredBytes: mss,
				Packets: 1, InFlight: 30 * mss,
			})
		})
	}
}

func (l *ledger) obsDrivers() {
	ev := func(i int) obs.Event {
		return obs.Event{
			Type: obs.EventType(i % int(obs.EvRateSample+1)), At: time.Duration(i) * 50 * time.Microsecond,
			Flow: packet.FlowID(i & 1), Seq: int64(i) * 1500, Bytes: 1500, Queue: 30000,
		}
	}
	reg := obs.NewRegistry()
	l.ns("obs.registry_emit_ns", 400000, func(i int) { reg.Emit(ev(i)) })
	jw := obs.NewJSONLWriter(io.Discard)
	l.ns("obs.jsonl_emit_ns", 100000, func(i int) { jw.Emit(ev(i)) })
	if err := jw.Close(); err != nil {
		l.fail("obs.jsonl_emit_ns", err)
	}
	smp := timeseries.NewSampler(timeseries.Config{Stride: 100 * time.Millisecond}, 2)
	l.ns("obs.sampler_emit_ns", 400000, func(i int) { smp.Emit(ev(i)) })
	det := detect.New(detect.Config{FairShare: 6e6}, 2)
	win := timeseries.Window{}
	l.ns("obs.detector_observe_ns", 400000, func(i int) {
		// Alternate runs of starved and healthy windows so the hysteresis
		// and the episode bookkeeping both run.
		win.DeliveredBytes = int64((i / 8 % 2) * 100000)
		det.Observe(packet.FlowID(i&1), &win, 100*time.Millisecond)
	})

	var series trace.Series
	series.Reserve(l.n(400000) * ledgerRounds)
	l.ns("trace.add_ns", 400000, func(i int) { series.Add(time.Duration(i), float64(i)) })
	big := trace.Series{}
	for i := 0; i < 10000; i++ {
		big.Add(time.Duration(i), float64(i))
	}
	l.us("trace.clone_us", 2000, func(int) { big.Clone() })

	xs := make([]float64, 500)
	cohorts := make([]string, 500)
	rng := rand.New(rand.NewSource(l.seed))
	for i := range xs {
		xs[i] = rng.Float64() * 1e6
		cohorts[i] = []string{"vegas", "reno", "copa", "bbr"}[i%4]
	}
	l.us("metrics.population_us.n500", 400, func(int) { metrics.Population(xs, cohorts, 250e6, 0) })
}

// pairSpecs is the two-flow shape of internal/network's EmulatedSecond
// benchmark: two Vegas flows, 12 Mbit/s, infinite buffer.
func pairSpecs() (network.Config, []network.FlowSpec) {
	cfg := network.Config{Rate: units.Mbps(12), Seed: 1}
	specs := []network.FlowSpec{
		{Alg: vegas.New(vegas.Config{}), Rm: 40 * time.Millisecond},
		{Alg: vegas.New(vegas.Config{}), Rm: 40 * time.Millisecond},
	}
	return cfg, specs
}

func (l *ledger) networkDrivers() {
	l.us("network.build_us.pair", 400, func(int) {
		cfg, specs := pairSpecs()
		if _, err := network.NewChecked(cfg, specs...); err != nil {
			panic(err)
		}
	})
	sess := network.NewSession()
	l.us("network.reset_us.pair", 400, func(int) {
		cfg, specs := pairSpecs()
		if _, err := sess.Run(cfg, time.Microsecond, specs...); err != nil {
			panic(err)
		}
	})

	// The 500-flow shape: Config() is paid outside the timed region, so
	// build and reset are the network layer's cost alone.
	spec := pop500Spec(time.Second)
	popCfg := func() (network.Config, []network.FlowSpec) {
		cfg, err := spec.Config()
		if err != nil {
			panic(err)
		}
		return network.Config{Rate: cfg.Rate, BufferBytes: cfg.BufferBytes, Seed: cfg.Seed}, cfg.Flows
	}
	var build, reset []float64
	popSess := network.NewSession()
	for r := 0; r < l.n(10)+1; r++ {
		cfg, specs := popCfg()
		t0 := time.Now()
		if _, err := network.NewChecked(cfg, specs...); err != nil {
			panic(err)
		}
		build = append(build, float64(time.Since(t0))/1e3)
		cfg, specs = popCfg()
		t0 = time.Now()
		if _, err := popSess.Run(cfg, time.Microsecond, specs...); err != nil {
			panic(err)
		}
		if r > 0 { // the session's first run is a build, not a reset
			reset = append(reset, float64(time.Since(t0))/1e3)
		}
	}
	l.ms.putNote("network.build_us.pop500", "us", median(build), "ledger")
	l.ms.putNote("network.reset_us.pop500", "us", median(reset), "ledger")

	// One emulated second of the pair, fresh network vs recycled session,
	// interleaved so drift hits both sides alike.
	var fresh, reused []float64
	var ms0, ms1 runtime.MemStats
	rounds := l.n(30)
	var mallocs, allocBytes uint64
	for r := 0; r < rounds; r++ {
		cfg, specs := pairSpecs()
		t0 := time.Now()
		network.New(cfg, specs...).Run(time.Second)
		fresh = append(fresh, float64(time.Since(t0)))
		cfg, specs = pairSpecs()
		runtime.ReadMemStats(&ms0)
		t0 = time.Now()
		if _, err := sess.Run(cfg, time.Second, specs...); err != nil {
			panic(err)
		}
		reused = append(reused, float64(time.Since(t0)))
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	}
	l.ms.putNote("network.session_speedup", "ratio", median(fresh)/median(reused), "ledger")
	l.ms.putNote("network.allocs_per_run", "allocs", float64(mallocs)/float64(rounds), "ledger")
	l.ms.putNote("network.alloc_kb_per_run", "KB", float64(allocBytes)/float64(rounds)/1024, "ledger")
}

// ladderSpec is the core.us_per_flowsec population: the pop_500 CCA mix at
// n flows, 0.5 Mbit/s and 2 buffer packets per flow.
func ladderSpec(n int, seed int64) scenario.PopulationSpec {
	q, r := n/4, n%4
	cnt := [4]int{q, q, q, q}
	for i := 0; i < r; i++ {
		cnt[i]++
	}
	return scenario.PopulationSpec{
		Flows:    fmt.Sprintf("vegas*%d;reno*%d;copa*%d;bbr*%d", cnt[0], cnt[1], cnt[2], cnt[3]),
		RateMbps: 0.5 * float64(n), BufferPkts: 2 * n, Duration: time.Second, Seed: seed,
	}
}

func (l *ledger) scenarioCoreDrivers() {
	spec := pop500Spec(200 * time.Millisecond)
	spec.Seed = mix(l.seed, 8)
	l.us("scenario.spec_config_us", 20, func(int) {
		if _, err := spec.Config(); err != nil {
			panic(err)
		}
	})
	l.us("scenario.spec_validate_us", 10, func(int) {
		if err := spec.Validate(); err != nil {
			panic(err)
		}
	})
	l.ns("scenario.spec_key_ns", 100000, func(int) { spec.Key() })

	pr, err := spec.Run()
	if err != nil {
		l.fail("500-flow realization for the render drivers", err)
		return
	}
	l.us("network.result_string_us.pop500", 100, func(int) { _ = pr.Net.String() })
	l.us("core.render_us", 100, func(int) { _ = pr.Render() })

	for _, n := range []int{10, 100, 1000} {
		var per []float64
		for r := 0; r < l.n(3); r++ {
			sp := ladderSpec(n, mix(l.seed, 9, int64(n), int64(r)))
			t0 := time.Now()
			res, err := sp.Run()
			wall := time.Since(t0)
			if err != nil || res.Net.Ledger.Check() != nil {
				l.fail(fmt.Sprintf("ladder n=%d", n), fmt.Errorf("run failed: %v", err))
				continue
			}
			per = append(per, float64(wall)/1e3/float64(n))
		}
		l.ms.putNote(fmt.Sprintf("core.us_per_flowsec.n%d", n), "us", median(per), "ledger")
	}

	// -jobs scaling of the sweep engine on the 500-flow shape: the same
	// seeds at jobs=nproc and at jobs=1.
	nproc := runtime.GOMAXPROCS(0)
	seeds := make([]int64, 2*nproc)
	for i := range seeds {
		seeds[i] = mix(l.seed, 10, int64(i))
	}
	scaleSpec := pop500Spec(time.Duration(l.n(1000)) * time.Millisecond)
	sweep := func(jobs int) time.Duration {
		t0 := time.Now()
		_, err := core.PopulationSweep(context.Background(), seeds, jobs, func(seed int64) (core.PopulationConfig, error) {
			s := scaleSpec
			s.Seed = seed
			return s.Config()
		})
		if err != nil {
			l.fail("runner.jobs_scaling sweep", err)
		}
		return time.Since(t0)
	}
	one := sweep(1)
	many := sweep(nproc)
	l.ms.putNote("runner.jobs_scaling", "ratio", one.Seconds()/many.Seconds(), "ledger")
}

func (l *ledger) runnerDrivers() {
	key := svcSpec(mix(l.seed, 11)).Key()
	l.ns("runner.fingerprint_ns", 100000, func(int) { key.Fingerprint(runner.SchemaVersion) })

	dir, err := os.MkdirTemp(l.scratch, "ledger-")
	if err != nil {
		l.fail("runner drivers temp dir", err)
		return
	}
	cache := &runner.Cache{Dir: filepath.Join(dir, "cache")}
	artifact := bytes.Repeat([]byte("0123456789abcdef"), 128) // 2 KiB: one rendered 8-flow result
	fps := make([]string, 0, 64)
	l.us("runner.cache_put_us", 12, func(i int) {
		k := key
		k.Seed = int64(i + 1)
		fp := cache.Fingerprint(k)
		fps = append(fps, fp)
		if err := cache.Put(fp, k, artifact); err != nil {
			panic(err)
		}
	})
	l.us("runner.cache_get_us", 200, func(i int) {
		if _, ok := cache.Get(fps[i%len(fps)]); !ok {
			panic("cache miss on an entry just put")
		}
	})
	// A batch manifest of eight jobs, as one service batch keeps.
	man := runner.LoadManifest(filepath.Join(dir, "manifest.json"))
	l.us("runner.manifest_record_us", 12, func(i int) {
		if err := man.Record(fmt.Sprintf("seed-%d", i%svcSweepSeeds), fps[0], runner.StatusDone, nil, 1, nil); err != nil {
			panic(err)
		}
	})
	jobs := make([]runner.Job, l.n(2000))
	for i := range jobs {
		jobs[i] = runner.Job{ID: fmt.Sprint(i), Run: func(context.Context) ([]byte, error) { return nil, nil }}
	}
	var per []float64
	for r := 0; r < ledgerRounds; r++ {
		pool := &runner.Pool{Jobs: 1}
		t0 := time.Now()
		pool.Run(context.Background(), jobs)
		per = append(per, float64(time.Since(t0))/1e3/float64(len(jobs)))
	}
	l.ms.putNote("runner.pool_job_overhead_us", "us", median(per), "ledger")
}

func (l *ledger) serviceDrivers() {
	body := svcBody("ledger", mix(l.seed, 12))
	l.us("service.decode_us", 40, func(int) {
		if _, _, err := service.DecodeBatchRequest(bytes.NewReader(body)); err != nil {
			panic(err)
		}
	})
	// Four tenants, one batch of eight items each, drained in DRR order.
	items := make([]service.Item, svcSweepSeeds)
	const tenants = 4
	l.ns("service.sched_item_ns", 2000, func(i int) {
		sched := service.NewScheduler(0)
		for c := 0; c < tenants; c++ {
			client := fmt.Sprintf("tenant-%d", c)
			for k := range items {
				items[k] = service.Item{Client: client, BatchID: client}
			}
			if err := sched.Enqueue(client, 1, items); err != nil {
				panic(err)
			}
		}
		for k := 0; k < tenants*svcSweepSeeds; k++ {
			sched.Next()
		}
	})
	l.ms.putNote("service.sched_item_ns", "ns", l.ms.val("service.sched_item_ns")/(tenants*svcSweepSeeds), "ledger")
	hub := service.NewHub()
	l.ns("service.hub_publish_ns", 20000, func(i int) {
		if i%64 == 0 {
			hub = service.NewHub() // a batch's stream is tens of events long
		}
		hub.Publish(service.Event{Type: "done", Job: "seed-1", Done: i % 8, Total: 8})
	})
}

// localRunMS is the cost of one service job simulated locally with no
// service around it — what service.overhead_ms_per_job subtracts.
func localRunMS(seed int64, n int) float64 {
	var per []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := svcSpec(mix(seed, 13, int64(i))).Run(); err != nil {
			return 0
		}
		per = append(per, millis(time.Since(t0)))
	}
	return median(per)
}

// overheadPasses runs the paper_pairs scenarios at a short emulated
// length four ways — bare, with an obs.Registry probe, with the flight
// recorder, with the run guard — and reports the three ratios, the
// per-scenario cost of the bare pass, and the episodes the recorder saw.
// Every pass uses the same seeds, so the four simulate the same thing.
func overheadPasses(seed int64, emu time.Duration, ms metricSet, tr *tracer) []check {
	p := newPairs(seed, emu)
	if err := p.setup(); err != nil {
		return []check{{Name: "ledger pairs pass", OK: false, Info: err.Error()}}
	}
	sp := tr.begin("ledger", "ledger.overhead_passes", 0)
	defer tr.end(sp)
	variants := []struct {
		metric string
		opts   func() scenario.Opts
	}{
		{"", func() scenario.Opts { return scenario.Opts{} }},
		{"obs.probe_overhead_ratio", func() scenario.Opts { return scenario.Opts{Probe: obs.NewRegistry()} }},
		{"obs.telemetry_overhead_ratio", func() scenario.Opts { return scenario.Opts{Telemetry: &network.TelemetryConfig{}} }},
		{"guard.overhead_ratio", func() scenario.Opts { return scenario.Opts{Guard: &guard.Options{}} }},
		{"", func() scenario.Opts { return scenario.Opts{} }},
	}
	var bare []*pairsPass
	walls := map[string]time.Duration{}
	var checks []check
	for _, v := range variants {
		pp := p.pass(0, v.opts(), nil)
		if v.metric == "" {
			bare = append(bare, pp)
		} else {
			walls[v.metric] = pp.wall
			// Flow statistics only: the guard schedules its own sweep
			// events, so the event count of a guarded run differs by design.
			checks = append(checks, check{Name: v.metric + " pass realizes the bare pass", OK: pp.flowDigest == bare[0].flowDigest,
				Info: pp.flowDigest + " vs " + bare[0].flowDigest})
		}
	}
	base := (bare[0].wall + bare[1].wall) / 2
	for name, w := range walls {
		ms.putNote(name, "ratio", w.Seconds()/base.Seconds(), "ledger")
	}
	for _, id := range paperIDs {
		ms.putNote("scenario."+id+".ms_per_emu_s", "ms",
			(bare[0].callMS[id]+bare[1].callMS[id])/2/emu.Seconds(), "ledger")
	}
	// Episodes need the results, which pass() does not keep: one more
	// recorder pass over the scenario the paper's T5.4d row is about.
	res := scenario.Registry["allegro-burst"](scenario.Opts{
		Seed: mix(seed, 2, 0, 3), Duration: emu, Telemetry: &network.TelemetryConfig{},
	})
	episodes := 0
	if res.Net != nil && res.Net.Telemetry != nil {
		episodes = len(res.Net.Telemetry.Episodes)
	}
	ms.putNote("obs.episodes", "count", float64(episodes), "ledger allegro-burst")
	return checks
}
