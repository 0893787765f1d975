package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"starvation/internal/scenario"
	"starvation/internal/service"
)

const (
	svcSweepSeeds = 8
	svcWarmup     = 40 // untimed batches before svc_cold is measured
	// svcSlice is how long a slice of a measured service phase is: long
	// enough for ~50 cold batches, short enough for ~20 slices a run.
	svcSlice = time.Second
	// A 404 on an artifact of a batch that already said batch-done is
	// retried every artifactRetryEvery for at most artifactRetryFor (see
	// "known defects" in the README).
	artifactRetryEvery = time.Millisecond
	artifactRetryFor   = 50 * time.Millisecond
)

// svcSpec is the job every service batch sweeps over eight seeds: small on
// purpose (~1.5 ms of simulation), so the daemon's own work is over half
// the cost of a cold batch.
func svcSpec(seed int64) scenario.PopulationSpec {
	return scenario.PopulationSpec{
		Flows: "vegas*4;reno*4", RateMbps: 12, BufferPkts: 200,
		Duration: 500 * time.Millisecond, Seed: seed,
	}
}

const svcFlowSecPerJob = 8 * 0.5

func svcBody(client string, seedFrom int64) []byte {
	return []byte(fmt.Sprintf(`{"client":%q,"sweep":{"flows":"vegas*4;reno*4","rate_mbps":12,"buffer_pkts":200,"duration_sec":0.5,"seed_from":%d,"seeds":%d}}`,
		client, seedFrom, svcSweepSeeds))
}

// daemon is an in-process starved: service.New + its handler behind an
// httptest server on loopback, Workers = nproc.
type daemon struct {
	srv     *service.Server
	ts      *httptest.Server
	dir     string
	workers int
	http    *http.Client
}

func startDaemon(scratch string) (*daemon, error) {
	dir, err := os.MkdirTemp(scratch, "starved-")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "batches"), 0o755); err != nil {
		return nil, err
	}
	spreadScratch(filepath.Join(dir, "batches"))
	workers := runtime.GOMAXPROCS(0)
	srv, err := service.New(service.Config{DataDir: dir, Workers: workers})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	return &daemon{srv: srv, ts: ts, dir: dir, workers: workers, http: ts.Client()}, nil
}

// stop closes the listener and drains the workers. The data dir stays
// until the run's scratch tree is removed (see spreadScratch).
func (d *daemon) stop() {
	d.ts.Close()
	d.srv.Drain()
}

// poolStats reads the runner pool's counters from /debug/queue.
func (d *daemon) poolStats() (executed, hits int64, err error) {
	resp, err := d.http.Get(d.ts.URL + "/debug/queue")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Stats struct {
			Executed  int64 `json:"executed"`
			CacheHits int64 `json:"cache_hits"`
		} `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, 0, err
	}
	return body.Stats.Executed, body.Stats.CacheHits, nil
}

// batchTrip is one closed-loop batch as its client saw it.
type batchTrip struct {
	sent, submitted, firstEvent, done, fetched time.Time
	artifactMS                                 []float64
	artifacts                                  map[string][]byte
	retries                                    int
	rejected                                   bool
	err                                        error
}

func (t *batchTrip) total() time.Duration { return t.fetched.Sub(t.sent) }

// submit runs one batch: POST, stream /events as JSONL to batch-done, GET
// every artifact. keep retains the artifact bytes for the parity check.
func (d *daemon) submit(body []byte, seedFrom int64, keep bool) *batchTrip {
	t := &batchTrip{sent: time.Now()}
	fail := func(format string, args ...any) *batchTrip {
		t.err = fmt.Errorf(format, args...)
		t.fetched = time.Now()
		return t
	}
	resp, err := d.http.Post(d.ts.URL+"/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail("POST /batches: %v", err)
	}
	var st service.BatchStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	t.submitted = time.Now()
	if resp.StatusCode == http.StatusTooManyRequests {
		t.rejected = true
		return fail("POST /batches: 429")
	}
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return fail("POST /batches: status %d: %v", resp.StatusCode, err)
	}

	ev, err := d.http.Get(d.ts.URL + "/batches/" + st.ID + "/events")
	if err != nil {
		return fail("GET events: %v", err)
	}
	sc := bufio.NewScanner(ev.Body)
	terminal := ""
	for sc.Scan() {
		if t.firstEvent.IsZero() {
			t.firstEvent = time.Now()
		}
		var e service.Event
		if json.Unmarshal(sc.Bytes(), &e) == nil && strings.HasPrefix(e.Type, "batch-") {
			terminal = e.Type
		}
	}
	ev.Body.Close()
	t.done = time.Now()
	if terminal != "batch-done" {
		return fail("batch %s ended with %q", st.ID, terminal)
	}

	if keep {
		t.artifacts = map[string][]byte{}
	}
	for k := 0; k < svcSweepSeeds; k++ {
		job := fmt.Sprintf("seed-%d", seedFrom+int64(k))
		a0 := time.Now()
		data, retries, err := d.artifact(st.ID, job)
		t.retries += retries
		if err != nil {
			return fail("artifact %s/%s: %v", st.ID, job, err)
		}
		t.artifactMS = append(t.artifactMS, millis(time.Since(a0)))
		if keep {
			t.artifacts[job] = data
		}
	}
	t.fetched = time.Now()
	return t
}

// artifact GETs one artifact, retrying a 404 inside the retry bound.
func (d *daemon) artifact(batch, job string) (data []byte, retries int, err error) {
	give := time.Now().Add(artifactRetryFor)
	for {
		resp, err := d.http.Get(d.ts.URL + "/batches/" + batch + "/artifacts/" + job)
		if err != nil {
			return nil, retries, err
		}
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && err == nil {
			return data, retries, nil
		}
		if resp.StatusCode != http.StatusNotFound || time.Now().After(give) {
			return nil, retries, fmt.Errorf("status %d after %d retries", resp.StatusCode, retries)
		}
		retries++
		time.Sleep(artifactRetryEvery)
	}
}

// svc is the svc_cold / svc_warm workload pair: nproc closed-loop client
// goroutines, each its own tenant, against one in-process daemon.
type svc struct {
	seed    int64
	warm    bool
	scratch string
	warmup  int
	d       *daemon
	clients int
}

func newSvc(seed int64, warm bool, scratch string, warmup int) *svc {
	return &svc{seed: seed, warm: warm, scratch: scratch, warmup: warmup, clients: runtime.GOMAXPROCS(0)}
}

// seedFrom returns the first sweep seed of a batch. Cold batches never
// repeat one; warm batches cycle through the bodies setup pre-filled.
func (s *svc) seedFrom(phase int64, client, k int) int64 {
	if s.warm {
		return mix(s.seed, 7, int64((k*s.clients+client)%s.warmup))
	}
	return mix(s.seed, phase, int64(client), int64(k))
}

// The untimed and the measured phase of svc_cold draw from different streams.
const (
	svcPhaseWarmup  = 5
	svcPhaseMeasure = 6
)

// setup starts the daemon and runs the untimed first phase: for svc_cold
// a warm-up of never-seen batches (the first phase of a fresh daemon ran
// ~40 % slower while sizing), for svc_warm the cache pre-fill.
func (s *svc) setup() error {
	d, err := startDaemon(s.scratch)
	if err != nil {
		return err
	}
	s.d = d
	errs := make([]error, s.clients)
	s.eachClient(func(c int) {
		for k := 0; k*s.clients+c < s.warmup; k++ {
			from := s.seedFrom(svcPhaseWarmup, c, k)
			if t := d.submit(svcBody(fmt.Sprintf("tenant-%d", c), from), from, false); t.err != nil {
				errs[c] = t.err
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *svc) eachClient(fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

func (s *svc) measure(seconds float64, tr *tracer) *measured {
	m := newMeasured()
	ex0, hit0, err := s.d.poolStats()
	m.check("read /debug/queue", err == nil, fmt.Sprint(err))
	trips := make([][]*batchTrip, s.clients)
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	s.eachClient(func(c int) {
		tenant := fmt.Sprintf("tenant-%d", c)
		for k := 0; k == 0 || time.Now().Before(deadline); k++ {
			from := s.seedFrom(svcPhaseMeasure, c, k)
			trips[c] = append(trips[c], s.d.submit(svcBody(tenant, from), from, c == 0 && k == 0))
		}
	})
	wall := time.Since(t0)
	ex1, hit1, err := s.d.poolStats()
	m.check("read /debug/queue", err == nil, fmt.Sprint(err))

	var submitMS, firstMS, streamMS, artMS, tracedMS, untracedMS []float64
	var jobs, retries, rejected int
	// The phase is cut into svcSlice-long slices by the moment a batch's
	// last artifact arrived; the slice the deadline fell into is left out
	// unless it is the only one.
	type slice struct {
		ms   []float64
		last time.Time // when the slice's last batch completed
	}
	full := int(wall / svcSlice)
	slices := make([]slice, max(full, 1))
	for c, ts := range trips {
		for k, t := range ts {
			m.attempted++
			retries += t.retries
			if t.rejected {
				rejected++
			}
			if t.err != nil {
				m.failed++
				m.check(fmt.Sprintf("batch %d of tenant %d", k, c), false, t.err.Error())
				continue
			}
			jobs += svcSweepSeeds
			ms := millis(t.total())
			m.batchMS = append(m.batchMS, ms)
			i := int(t.fetched.Sub(t0) / svcSlice)
			if full == 0 {
				i = 0 // a phase shorter than a slice is one slice
			}
			if i < len(slices) {
				slices[i].ms = append(slices[i].ms, ms)
				if t.fetched.After(slices[i].last) {
					slices[i].last = t.fetched
				}
			}
			submitMS = append(submitMS, millis(t.submitted.Sub(t.sent)))
			firstMS = append(firstMS, millis(t.firstEvent.Sub(t.submitted)))
			streamMS = append(streamMS, millis(t.done.Sub(t.firstEvent)))
			artMS = append(artMS, t.artifactMS...)
			// Odd batches are the traced ones: their phases become spans.
			if tr != nil && k%2 == 1 {
				op := fmt.Sprintf("tenant-%d-batch-%d", c, k)
				root := tr.record(op, "service.batch", 0, t.sent, t.fetched)
				tr.record(op, "submit", root, t.sent, t.submitted)
				tr.record(op, "first_event", root, t.submitted, t.firstEvent)
				tr.record(op, "stream", root, t.firstEvent, t.done)
				tr.record(op, "artifacts", root, t.done, t.fetched)
				tracedMS = append(tracedMS, ms)
			} else {
				untracedMS = append(untracedMS, ms)
			}
		}
	}
	if len(tracedMS) > 0 && len(untracedMS) > 0 {
		// Per-batch means, so an odd batch count does not skew the ratio.
		m.pairedWall = time.Duration(sum(untracedMS) / float64(len(untracedMS)) * float64(time.Millisecond))
		m.tracedWall = time.Duration(sum(tracedMS) / float64(len(tracedMS)) * float64(time.Millisecond))
	}
	// Each slice gives a median and a 95th-percentile latency and a rate;
	// the run reports the quiet quartile of each.
	// the run reports the quiet quartile of each. A slice's rate is its
	// jobs over the time since the slice before it completed its last batch.
	var p50s, p95s []float64
	prev := t0
	for _, sl := range slices {
		if len(sl.ms) > 0 {
			p50s = append(p50s, median(sl.ms))
			p95s = append(p95s, quantile(sl.ms, 0.95))
			m.rates = append(m.rates, float64(len(sl.ms)*svcSweepSeeds)/sl.last.Sub(prev).Seconds())
			prev = sl.last
		}
	}
	m.refWall = wall
	m.batchP50 = quietLow(p50s)
	m.jobsPerS = quietHigh(m.rates)
	m.flowsec = float64(jobs) * svcFlowSecPerJob
	m.flowWall = wall

	batches := float64(m.attempted - m.failed)
	executed, hits := float64(ex1-ex0), float64(hit1-hit0)
	x := m.extra
	x.putSamples("service.batch_ms_p95", "ms", quietLow(p95s), p95s)
	x.putSamples("service.submit_ms_p50", "ms", median(submitMS), submitMS)
	x.putSamples("service.first_event_ms_p50", "ms", median(firstMS), firstMS)
	x.putSamples("service.stream_ms_p50", "ms", median(streamMS), streamMS)
	x.putSamples("service.artifact_get_ms_p50", "ms", median(artMS), artMS)
	x.put("service.artifact_404_retries", "count", float64(retries))
	x.put("service.rejected_429", "count", float64(rejected))
	if batches > 0 {
		// Per batch, so the counts do not depend on how many batches fit.
		x.put("runner.executed", "count", executed/batches)
		x.put("runner.cache_hits", "count", hits/batches)
	}
	if jobs > 0 {
		// Worker time per job; the ledger subtracts the simulation itself.
		m.workerMSPerJob = millis(wall) * float64(s.d.workers) / float64(jobs)
		m.simulatedShare = executed / float64(jobs)
	}
	if s.warm {
		m.check("svc_warm simulated nothing", executed == 0, fmt.Sprintf("runner.executed = %v", executed))
	} else {
		m.check("svc_cold simulated every job", int(executed) == jobs || m.failed > 0, fmt.Sprintf("executed %v of %d", executed, jobs))
	}
	s.parity(m, trips[0][0])
	return m
}

// parity compares every artifact of one sampled batch, byte for byte, with
// a local run of the same spec, and takes that batch's simulated counts
// and digest from the local runs.
func (s *svc) parity(m *measured, t *batchTrip) {
	if t.err != nil {
		return
	}
	var d digest
	ok := true
	from := s.seedFrom(svcPhaseMeasure, 0, 0)
	for k := 0; k < svcSweepSeeds; k++ {
		seed := from + int64(k)
		pr, err := svcSpec(seed).Run()
		if err != nil {
			ok = false
			break
		}
		got := t.artifacts[fmt.Sprintf("seed-%d", seed)]
		if !bytes.Equal(got, []byte(pr.Render())) {
			ok = false
		}
		digestNet(&d, pr.Net)
		if !s.warm {
			m.counts.addNet(pr.Net)
		}
	}
	m.digest = d.String()
	m.check("sampled batch artifacts == local spec.Run().Render()", ok, m.digest)
}

func (s *svc) close() {
	if s.d != nil {
		s.d.stop()
		s.d = nil
	}
}
