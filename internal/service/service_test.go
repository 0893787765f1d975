package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"starvation/internal/runner"
	"starvation/internal/scenario"
)

// testSpec is a small, fast population experiment (≈50 ms emulated).
func testSpec(seed int64) scenario.PopulationSpec {
	return scenario.PopulationSpec{Flows: "reno*2", Duration: 50 * time.Millisecond, Seed: seed}
}

func testJobJSON(name string, seed int64) string {
	return fmt.Sprintf(`{"name":%q,"flows":"reno*2","duration_sec":0.05,"seed":%d}`, name, seed)
}

// newTestServer builds a started server over a temp DataDir plus an
// httptest front end. start=false leaves the workers off so tests can
// control when execution begins.
func newTestServer(t *testing.T, cfg Config, start bool) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	if cfg.DrainGrace == 0 {
		cfg.DrainGrace = 2 * time.Second
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if start {
		s.Start()
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	return s, ts
}

func postBatch(t *testing.T, base, body string) (int, map[string]any, http.Header) {
	t.Helper()
	resp, err := http.Post(base+"/batches", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out, resp.Header
}

// waitBatch polls until the batch is terminal.
func waitBatch(t *testing.T, s *Server, id string) BatchStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		b, ok := s.batch(id)
		if !ok {
			t.Fatalf("batch %s vanished", id)
		}
		if st := b.status(); st.State.terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("batch %s did not reach a terminal state", id)
	return BatchStatus{}
}

// TestServiceEndToEnd: submit over HTTP, stream the event log to
// completion, and read back artifacts byte-identical to what the CLI's
// render path produces for the same specs.
func TestServiceEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4}, true)
	code, out, _ := postBatch(t, ts.URL,
		`{"client":"alice","jobs":[`+testJobJSON("a", 11)+`,`+testJobJSON("b", 12)+`]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, out)
	}
	id := out["id"].(string)

	// Stream events as JSONL; the stream ends when the batch is terminal.
	resp, err := http.Get(ts.URL + "/batches/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0].Type != "queued" {
		t.Fatalf("first event %+v, want queued", events)
	}
	last := events[len(events)-1]
	if last.Type != "batch-done" || last.Done != 2 || last.Total != 2 {
		t.Fatalf("last event %+v, want batch-done 2/2", last)
	}
	for i, ev := range events {
		if ev.Seq != int64(i) {
			t.Fatalf("event %d has seq %d; replay is gappy", i, ev.Seq)
		}
	}

	st := waitBatch(t, s, id)
	if st.State != stateDone || st.Done != 2 || st.Failed != 0 {
		t.Fatalf("final status %+v", st)
	}

	// Artifact bytes must equal the shared render path's output — the
	// same function the CLI prints, which is what makes server-vs-CLI
	// parity hold byte for byte.
	for name, seed := range map[string]int64{"a": 11, "b": 12} {
		want, err := testSpec(seed).Run()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(ts.URL + "/batches/" + id + "/artifacts/" + name)
		if err != nil {
			t.Fatal(err)
		}
		data := readAll(t, resp)
		if string(data) != want.Render() {
			t.Fatalf("artifact %s diverges from the CLI rendering:\n%s\n---\n%s", name, data, want.Render())
		}
	}

	// Artifact listing.
	resp2, err := http.Get(ts.URL + "/batches/" + id + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	if err := json.Unmarshal(readAll(t, resp2), &names); err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("artifact listing %v", names)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b.String())
	}
	return []byte(b.String())
}

// TestServiceBadRequest pins the shared validation contract: a malformed
// batch spec comes back as HTTP 400 carrying the very message the CLI
// exits 2 with for the same spec (satellite of the clause grammar).
func TestServiceBadRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{}, false)
	specErr := func(spec scenario.PopulationSpec) string {
		return spec.Validate().Error()
	}
	cases := []struct {
		name, body, want string
	}{
		{"malformed json", `{`, "decoding batch request"},
		{"unknown field", `{"bogus":1}`, "decoding batch request"},
		{"no jobs", `{"client":"x"}`, "batch has no jobs"},
		{"negative weight", `{"weight":-2,"jobs":[{"flows":"reno*2"}]}`, "weight -2 negative"},
		{"duplicate names", `{"jobs":[{"name":"j","flows":"reno*2"},{"name":"j","flows":"reno*2"}]}`, `duplicate job name "j"`},
		{"bad chaos spec", `{"chaos":"wat","jobs":[{"flows":"reno*2"}]}`, "chaos"},
		{"bad sweep", `{"sweep":{"flows":"reno*2","seeds":0}}`, "sweep: seeds 0"},
		// The CLI-shared spec errors, byte for byte.
		{"unknown cca", `{"jobs":[{"flows":"nosuchcca*2"}]}`,
			`job "job-000": ` + specErr(scenario.PopulationSpec{Flows: "nosuchcca*2"})},
		{"bad topology", `{"jobs":[{"flows":"reno*2","topology":"ring:4"}]}`,
			`job "job-000": ` + specErr(scenario.PopulationSpec{Flows: "reno*2", Topology: "ring:4"})},
		{"empty flows", `{"jobs":[{"flows":""}]}`,
			`job "job-000": ` + specErr(scenario.PopulationSpec{Flows: ""})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, out, _ := postBatch(t, ts.URL, c.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d %v, want 400", code, out)
			}
			msg, _ := out["error"].(string)
			if !strings.Contains(msg, c.want) {
				t.Fatalf("error %q does not carry %q", msg, c.want)
			}
		})
	}
}

// TestServiceBackpressure: a saturated queue rejects with 429 and a
// Retry-After hint; space freed by execution admits again.
func TestServiceBackpressure(t *testing.T) {
	// Workers never started: the queue holds whatever is admitted.
	s, ts := newTestServer(t, Config{QueueDepth: 4}, false)
	code, _, _ := postBatch(t, ts.URL,
		`{"client":"a","jobs":[`+strings.Join([]string{
			testJobJSON("j0", 1), testJobJSON("j1", 2), testJobJSON("j2", 3), testJobJSON("j3", 4)}, ",")+`]}`)
	if code != http.StatusAccepted {
		t.Fatalf("filling submit: %d", code)
	}
	code, out, hdr := postBatch(t, ts.URL, `{"client":"b","jobs":[`+testJobJSON("x", 9)+`]}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overfull submit: %d %v, want 429", code, out)
	}
	if ra := hdr.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var met strings.Builder
	if err := s.fams.WritePrometheus(&met); err != nil {
		t.Fatal(err)
	}
	if want := `starved_rejected_total{client="b"} 1` + "\n"; !strings.Contains(met.String(), want) {
		t.Fatalf("metrics lack %q:\n%s", want, met.String())
	}
	// The rejected batch leaves no residue.
	if n := len(s.statuses()); n != 1 {
		t.Fatalf("%d batches registered after rejection, want 1", n)
	}
	// Draining the queue re-opens admission.
	s.Start()
	waitBatch(t, s, s.statuses()[0].ID)
	code, _, _ = postBatch(t, ts.URL, `{"client":"b","jobs":[`+testJobJSON("x", 9)+`]}`)
	if code != http.StatusAccepted {
		t.Fatalf("post-drain submit: %d, want 202", code)
	}
}

// TestServiceCancel: queued jobs are discarded, the stream closes with
// batch-cancelled, and the batch record survives as cancelled.
func TestServiceCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{}, false) // no workers: jobs stay queued
	code, out, _ := postBatch(t, ts.URL, `{"jobs":[`+testJobJSON("a", 1)+`,`+testJobJSON("b", 2)+`]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	id := out["id"].(string)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/batches/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st BatchStatus
	if err := json.Unmarshal(readAll(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != stateCancelled {
		t.Fatalf("state %s after cancel", st.State)
	}
	if d := s.sched.queued(); d != 0 {
		t.Fatalf("queue depth %d after cancel, want 0", d)
	}
	// The event stream ends (hub closed) with the cancellation event.
	resp2, err := http.Get(ts.URL + "/batches/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(readAll(t, resp2))), "\n")
	var last Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != "batch-cancelled" {
		t.Fatalf("last event %+v, want batch-cancelled", last)
	}
}

// TestServiceConcurrentBatches: batches submitted concurrently by two
// clients produce artifacts byte-identical to sequential single-spec runs
// — the server-side restatement of the runner's parallel-parity
// invariant, across the full HTTP path.
func TestServiceConcurrentBatches(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4}, true)
	type sub struct {
		id    string
		seeds []int64
	}
	subs := make([]sub, 2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seeds := []int64{int64(100*c + 1), int64(100*c + 2), int64(100*c + 3)}
			jobs := make([]string, len(seeds))
			for i, seed := range seeds {
				jobs[i] = testJobJSON(fmt.Sprintf("s%d", seed), seed)
			}
			code, out, _ := postBatch(t, ts.URL,
				fmt.Sprintf(`{"client":"c%d","jobs":[%s]}`, c, strings.Join(jobs, ",")))
			if code != http.StatusAccepted {
				t.Errorf("client %d submit: %d", c, code)
				return
			}
			subs[c] = sub{id: out["id"].(string), seeds: seeds}
		}(c)
	}
	wg.Wait()
	for _, su := range subs {
		if su.id == "" {
			t.Fatal("a submission failed")
		}
		if st := waitBatch(t, s, su.id); st.State != stateDone {
			t.Fatalf("batch %s: %+v", su.id, st)
		}
		for _, seed := range su.seeds {
			want, err := testSpec(seed).Run()
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Get(ts.URL + fmt.Sprintf("/batches/%s/artifacts/s%d", su.id, seed))
			if err != nil {
				t.Fatal(err)
			}
			if got := string(readAll(t, resp)); got != want.Render() {
				t.Fatalf("batch %s seed %d diverges from the sequential run", su.id, seed)
			}
		}
	}
}

// TestServiceArtifactsLandBeforeBatchDone: a job's terminal progress event
// precedes its artifact write, so with two workers a quick job used to
// find the batch fully counted and publish batch-done while a slower
// worker was still writing. Every artifact must be fetchable the moment
// batch-done is observed on the event stream.
func TestServiceArtifactsLandBeforeBatchDone(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2}, false)
	quick := []string{"q1", "q2", "q3"}
	jobs := []string{testJobJSON("slow", 1)}
	for i, q := range quick {
		jobs = append(jobs, testJobJSON(q, int64(i+2)))
	}
	code, out, _ := postBatch(t, ts.URL, `{"jobs":[`+strings.Join(jobs, ",")+`]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, out)
	}
	id := out["id"].(string)
	b, _ := s.batch(id)
	s.beforeArtifact = func(job string) {
		if job != "slow" {
			return
		}
		// Hold this write until the other worker has landed every quick
		// artifact, then a little longer: time for a premature batch-done.
		for _, q := range quick {
			for {
				if _, err := os.Stat(b.artifactPath(q)); err == nil {
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	s.Start()

	resp, err := http.Get(ts.URL + "/batches/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var last Event
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
	}
	if last.Type != "batch-done" {
		t.Fatalf("stream ended on %+v, want batch-done", last)
	}
	for _, name := range append([]string{"slow"}, quick...) {
		resp, err := http.Get(ts.URL + "/batches/" + id + "/artifacts/" + name)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("artifact %s: %d right after batch-done", name, resp.StatusCode)
		}
	}
}

// TestServiceFairness: with one worker, a 3-job probe submitted after a
// 40-job sweep still finishes long before it — each probe job waits at
// most one job slice, not the sweep's backlog.
func TestServiceFairness(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 100}, false)
	jobs := make([]string, 40)
	for i := range jobs {
		jobs[i] = testJobJSON(fmt.Sprintf("h%02d", i), int64(200+i))
	}
	code, heavyOut, _ := postBatch(t, ts.URL, `{"client":"sweeper","jobs":[`+strings.Join(jobs, ",")+`]}`)
	if code != http.StatusAccepted {
		t.Fatalf("heavy submit: %d", code)
	}
	probe := []string{testJobJSON("p0", 301), testJobJSON("p1", 302), testJobJSON("p2", 303)}
	code, lightOut, _ := postBatch(t, ts.URL, `{"client":"prober","jobs":[`+strings.Join(probe, ",")+`]}`)
	if code != http.StatusAccepted {
		t.Fatalf("light submit: %d", code)
	}
	s.Start()
	light := waitBatch(t, s, lightOut["id"].(string))
	heavy := waitBatch(t, s, heavyOut["id"].(string))
	if light.Finished == nil || heavy.Finished == nil {
		t.Fatal("missing finish times")
	}
	if !light.Finished.Before(*heavy.Finished) {
		t.Fatalf("probe finished at %v, after the sweep at %v — starved", light.Finished, heavy.Finished)
	}
	// Stronger: when the probe finished, the sweep must still have had
	// most of its backlog outstanding (DRR interleaving, not luck).
	hb, _ := s.batch(heavy.ID)
	_ = hb
	var lightLast Event
	lb, _ := s.batch(light.ID)
	evs, _, _ := lb.hub.next(0)
	lightLast = evs[len(evs)-1]
	if lightLast.Type != "batch-done" {
		t.Fatalf("light batch last event %+v", lightLast)
	}
}

// getArtifact GETs one job's artifact and fails unless it is served and
// equals the CLI rendering of the spec at seed.
func getArtifact(t *testing.T, base, id, name string, seed int64) {
	t.Helper()
	want, err := testSpec(seed).Run()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(base + "/batches/" + id + "/artifacts/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, resp); resp.StatusCode != http.StatusOK || string(got) != want.Render() {
		t.Fatalf("artifact %s/%s (%d) diverges from the CLI rendering:\n%s\n---\n%s", id, name, resp.StatusCode, got, want.Render())
	}
}

// TestServiceDrainAndResume: a drained daemon's successor finds a batch
// whose artifact file is gone. While the cache holds the job's bytes the
// job is satisfied: the batch restores as done and the cache serves the
// artifact. With the cache entry gone too, the batch re-queues and the
// job re-simulates into a healed artifact.
func TestServiceDrainAndResume(t *testing.T) {
	for _, tc := range []struct {
		name       string
		dropCache  bool
		wantQueued bool
		executed   int64
	}{
		{name: "tree-file-gone"},
		{name: "tree-file-and-cache-entry-gone", dropCache: true, wantQueued: true, executed: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s1, ts1 := newTestServer(t, Config{DataDir: dir, Workers: 2}, true)
			code, out, _ := postBatch(t, ts1.URL,
				`{"client":"alice","jobs":[`+testJobJSON("a", 21)+`,`+testJobJSON("b", 22)+`,`+testJobJSON("c", 23)+`]}`)
			if code != http.StatusAccepted {
				t.Fatalf("submit: %d", code)
			}
			id := out["id"].(string)
			waitBatch(t, s1, id)
			s1.Drain()
			ts1.Close()

			// Simulate an interrupted artifact write: one rendered file is
			// gone, and in the second case its cache entry with it.
			b1, _ := s1.batch(id)
			if err := os.Remove(b1.artifactPath("b")); err != nil {
				t.Fatal(err)
			}
			if tc.dropCache {
				fp := s1.pool.Cache.Fingerprint(testSpec(22).Key())
				if err := os.Remove(filepath.Join(dir, "cache", fp[:2], fp+".json")); err != nil {
					t.Fatal(err)
				}
			}

			s2, ts2 := newTestServer(t, Config{DataDir: dir, Workers: 2}, false)
			b2, ok := s2.batch(id)
			if !ok {
				t.Fatal("restarted daemon lost the batch")
			}
			if st := b2.status(); st.State.terminal() == tc.wantQueued {
				t.Fatalf("batch restored as %s; want re-queued %v", st.State, tc.wantQueued)
			}
			s2.Start()
			st := waitBatch(t, s2, id)
			if st.State != stateDone {
				t.Fatalf("resumed batch: %+v", st)
			}
			stats := s2.pool.Stats()
			if stats.Executed != tc.executed {
				t.Fatalf("resume simulated %d jobs, want %d", stats.Executed, tc.executed)
			}
			if stats.CacheHits != 0 {
				t.Fatalf("resume restored %d jobs through the pool, want 0", stats.CacheHits)
			}
			getArtifact(t, ts2.URL, id, "b", 22)
			if _, err := os.Stat(b2.artifactPath("b")); (err == nil) != tc.dropCache {
				t.Fatalf("batch tree file after the resume: %v; want it back only when the job re-simulated", err)
			}
		})
	}
}

// TestServiceResubmitTouchesNoFile: a resubmitted batch restores every
// job from the cache and copies none into its batch tree, yet lists and
// serves each artifact byte-identical to the CLI rendering, before and
// after a drain and a restart on the same DataDir.
func TestServiceResubmitTouchesNoFile(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{DataDir: dir, Workers: 2}, true)
	seeds := map[string]int64{"a": 71, "b": 72, "c": 73}
	body := `{"jobs":[` + testJobJSON("a", 71) + `,` + testJobJSON("b", 72) + `,` + testJobJSON("c", 73) + `]}`
	var id string
	for round := 1; round <= 2; round++ {
		code, out, _ := postBatch(t, ts1.URL, body)
		if code != http.StatusAccepted {
			t.Fatalf("round %d submit: %d %v", round, code, out)
		}
		id = out["id"].(string)
		if st := waitBatch(t, s1, id); st.State != stateDone {
			t.Fatalf("round %d batch ended %+v, want done", round, st)
		}
	}
	if st := s1.pool.Stats(); st.Executed != 3 || st.CacheHits != 3 {
		t.Fatalf("executed %d, cache hits %d; want the first round simulated and the second restored", st.Executed, st.CacheHits)
	}
	b, _ := s1.batch(id)
	if _, err := os.Stat(filepath.Join(b.dir, "artifacts")); !os.IsNotExist(err) {
		t.Fatalf("resubmitted batch wrote an artifact tree (%v)", err)
	}

	check := func(base string) {
		t.Helper()
		resp, err := http.Get(base + "/batches/" + id + "/artifacts")
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		if err := json.Unmarshal(readAll(t, resp), &names); err != nil {
			t.Fatal(err)
		}
		if strings.Join(names, ",") != "a,b,c" {
			t.Fatalf("artifact listing %v, want [a b c]", names)
		}
		for name, seed := range seeds {
			getArtifact(t, base, id, name, seed)
		}
	}
	check(ts1.URL)
	s1.Drain()
	ts1.Close()

	s2, ts2 := newTestServer(t, Config{DataDir: dir, Workers: 2}, true)
	b2, ok := s2.batch(id)
	if !ok || b2.status().State != stateDone {
		t.Fatalf("resubmitted batch not restored as done (found: %v)", ok)
	}
	check(ts2.URL)
	if st := s2.pool.Stats(); st.Executed != 0 {
		t.Fatalf("restart simulated %d jobs, want 0", st.Executed)
	}
}

// TestServiceRestoreCrashBeforeFold: a batch whose every job restores
// keeps its outcomes in memory until finalize's fold, so a kill before the
// fold leaves no manifest.json. The next daemon re-queues the batch, which
// restores again from the cache with nothing simulated. After a clean
// finalize, a restart loads the batch as done and re-queues nothing.
func TestServiceRestoreCrashBeforeFold(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{DataDir: dir, Workers: 2}, true)
	seeds := map[string]int64{"a": 81, "b": 82, "c": 83}
	body := `{"jobs":[` + testJobJSON("a", 81) + `,` + testJobJSON("b", 82) + `,` + testJobJSON("c", 83) + `]}`
	var id string
	for round := 1; round <= 2; round++ {
		code, out, _ := postBatch(t, ts1.URL, body)
		if code != http.StatusAccepted {
			t.Fatalf("round %d submit: %d %v", round, code, out)
		}
		id = out["id"].(string)
		if st := waitBatch(t, s1, id); st.State != stateDone {
			t.Fatalf("round %d batch ended %+v, want done", round, st)
		}
	}
	if st := s1.pool.Stats(); st.CacheHits != 3 {
		t.Fatalf("second round restored %d jobs, want 3", st.CacheHits)
	}
	s1.Drain()
	ts1.Close()
	bdir := filepath.Join(dir, "batches", id)
	if err := os.Remove(filepath.Join(bdir, "manifest.json")); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{DataDir: dir, Workers: 2}, false)
	b2, ok := s2.batch(id)
	if !ok || b2.status().State.terminal() {
		t.Fatalf("batch without a manifest not re-queued (found: %v)", ok)
	}
	s2.Start()
	if st := waitBatch(t, s2, id); st.State != stateDone {
		t.Fatalf("re-queued batch ended %+v, want done", st)
	}
	if st := s2.pool.Stats(); st.Executed != 0 || st.CacheHits != 3 {
		t.Fatalf("re-queued batch executed %d, restored %d; want 0 and 3", st.Executed, st.CacheHits)
	}
	for name, seed := range seeds {
		getArtifact(t, ts2.URL, id, name, seed)
	}
	s2.Drain()
	ts2.Close()

	entries, err := os.ReadDir(bdir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if strings.Join(names, ",") != "batch.json,manifest.json" {
		t.Errorf("restored batch directory holds %v, want [batch.json manifest.json]", names)
	}
	if data, err := os.ReadFile(filepath.Join(bdir, "manifest.json")); err != nil || strings.Contains(string(data), `{"id":`) {
		t.Errorf("folded manifest (%v) holds journal lines:\n%s", err, data)
	}

	s3, ts3 := newTestServer(t, Config{DataDir: dir, Workers: 2}, false)
	b3, ok := s3.batch(id)
	if !ok || b3.status().State != stateDone {
		t.Fatalf("cleanly finalized batch not loaded as done (found: %v)", ok)
	}
	s3.Start()
	if n := s3.sched.queued(); n != 0 {
		t.Fatalf("restart re-queued %d jobs, want 0", n)
	}
	for name, seed := range seeds {
		getArtifact(t, ts3.URL, id, name, seed)
	}
	if st := s3.pool.Stats(); st.Executed != 0 || st.CacheHits != 0 {
		t.Fatalf("restart executed %d, restored %d through the pool; want 0 and 0", st.Executed, st.CacheHits)
	}
}

// TestServiceFoldsFinishedJournal: a finished batch whose manifest still
// carries journal lines (its daemon died before finalize folded them) is
// folded back to the finished snapshot when the next daemon loads it.
func TestServiceFoldsFinishedJournal(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{DataDir: dir, Workers: 2}, true)
	code, out, _ := postBatch(t, ts1.URL, `{"jobs":[`+testJobJSON("a", 51)+`,`+testJobJSON("b", 52)+`]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	id := out["id"].(string)
	waitBatch(t, s1, id)
	s1.Drain()
	ts1.Close()

	path := filepath.Join(dir, "batches", id, "manifest.json")
	folded, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the last record as a journal line, as a kill before the fold
	// leaves it.
	m := runner.LoadManifest(path)
	e, _ := m.Entry("b")
	if err := m.Record("b", e.Fingerprint, e.Status, e.Err, e.Attempts, e.History); err != nil {
		t.Fatal(err)
	}
	if journaled, _ := os.ReadFile(path); len(journaled) <= len(folded) {
		t.Fatalf("Record did not append a journal line")
	}

	s2, _ := newTestServer(t, Config{DataDir: dir}, false)
	if b, ok := s2.batch(id); !ok || b.status().State != stateDone {
		t.Fatalf("finished batch not restored as done (found: %v)", ok)
	}
	if got, _ := os.ReadFile(path); string(got) != string(folded) {
		t.Errorf("restored finished batch's manifest not folded:\n%s\n--- want:\n%s", got, folded)
	}
}

// TestServiceRestoredFinishedNotBeforeCreated: a done batch restored from
// disk takes its finish time from the manifest's mtime, which a coarse
// filesystem clock can stamp before the batch's created time; the
// restored batch still reports finished ≥ created.
func TestServiceRestoredFinishedNotBeforeCreated(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{DataDir: dir, Workers: 2}, true)
	code, out, _ := postBatch(t, ts1.URL, `{"jobs":[`+testJobJSON("a", 61)+`]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	id := out["id"].(string)
	created := waitBatch(t, s1, id).Created
	s1.Drain()
	ts1.Close()

	early := created.Add(-3 * time.Millisecond)
	if err := os.Chtimes(filepath.Join(dir, "batches", id, "manifest.json"), early, early); err != nil {
		t.Fatal(err)
	}
	s2, _ := newTestServer(t, Config{DataDir: dir}, false)
	b, ok := s2.batch(id)
	if !ok {
		t.Fatalf("batch %s not restored", id)
	}
	st := b.status()
	if st.State != stateDone || st.Finished == nil {
		t.Fatalf("restored batch: state %s, finished %v; want done with a finish time", st.State, st.Finished)
	}
	if st.Finished.Before(st.Created) {
		t.Errorf("restored batch finished %v, before it was created %v", st.Finished, st.Created)
	}
}

// TestServiceResumeQueuedBatch: a batch admitted but never started (the
// daemon died first) runs to completion on the next daemon.
func TestServiceResumeQueuedBatch(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{DataDir: dir}, false) // workers never start
	code, out, _ := postBatch(t, ts1.URL, `{"jobs":[`+testJobJSON("a", 31)+`]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	id := out["id"].(string)
	s1.Drain()
	ts1.Close()

	s2, _ := newTestServer(t, Config{DataDir: dir}, true)
	st := waitBatch(t, s2, id)
	if st.State != stateDone || st.Done != 1 {
		t.Fatalf("resumed queued batch: %+v", st)
	}
}

// TestServiceChaosBatch: a batch under an injected-fault spec converges
// through retries to artifacts byte-identical to a fault-free run.
func TestServiceChaosBatch(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2}, true)
	code, out, _ := postBatch(t, ts.URL,
		`{"client":"chaos","chaos":"seed:3;fail:0.5","jobs":[`+testJobJSON("a", 41)+`,`+testJobJSON("b", 42)+`]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	st := waitBatch(t, s, out["id"].(string))
	if st.State != stateDone || st.Failed != 0 {
		t.Fatalf("chaos batch did not converge: %+v", st)
	}
	for name, seed := range map[string]int64{"a": 41, "b": 42} {
		want, err := testSpec(seed).Run()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(ts.URL + "/batches/" + out["id"].(string) + "/artifacts/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(readAll(t, resp)); got != want.Render() {
			t.Fatalf("chaos artifact %s diverges from the fault-free rendering", name)
		}
	}
}

// TestServiceUnwritableCache: a cache directory that cannot be created
// (its path runs through a regular file, so every write fails with
// ENOTDIR) costs warm restores, never results. The batch finishes with
// byte-correct artifacts, a resubmission re-simulates instead of
// wedging, and Drain reports the failed writes in one log line.
func TestServiceUnwritableCache(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "cache"), []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	s, ts := newTestServer(t, Config{DataDir: dir, Workers: 2, Logf: logf}, true)
	body := `{"jobs":[` + testJobJSON("a", 61) + `,` + testJobJSON("b", 62) + `]}`
	seeds := map[string]int64{"a": 61, "b": 62}

	for round := 1; round <= 2; round++ {
		code, out, _ := postBatch(t, ts.URL, body)
		if code != http.StatusAccepted {
			t.Fatalf("round %d submit: %d %v", round, code, out)
		}
		id := out["id"].(string)
		if st := waitBatch(t, s, id); st.State != stateDone {
			t.Fatalf("round %d batch ended %+v, want done", round, st)
		}
		b, _ := s.batch(id)
		for name, seed := range seeds {
			want, err := testSpec(seed).Run()
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(b.artifactPath(name))
			if err != nil || string(got) != want.Render() {
				t.Fatalf("round %d artifact %s is not the CLI rendering (%v)", round, name, err)
			}
		}
		// The failed writes retire their pending entries; only then is a
		// resubmission sure to find nothing to restore.
		for _, seed := range seeds {
			fp := s.pool.Cache.Fingerprint(testSpec(seed).Key())
			deadline := time.Now().Add(10 * time.Second)
			for _, hit := s.pool.Cache.Get(fp); hit; _, hit = s.pool.Cache.Get(fp) {
				if time.Now().After(deadline) {
					t.Fatalf("entry %s still served after its write failed", fp)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	if st := s.pool.Stats(); st.Executed != 4 || st.CacheHits != 0 {
		t.Fatalf("executed %d, cache hits %d; want every job of both rounds simulated", st.Executed, st.CacheHits)
	}

	s.Drain()
	mu.Lock()
	defer mu.Unlock()
	reported := 0
	for _, line := range logs {
		if strings.Contains(line, "cache writes failed") {
			reported++
			if !strings.Contains(line, "not a directory") {
				t.Errorf("cache failure line does not carry the write error: %s", line)
			}
		}
	}
	if reported != 1 {
		t.Fatalf("Drain logged the cache failure %d times, want once; log:\n%s", reported, strings.Join(logs, "\n"))
	}
}

// TestServiceDrainRejects: a draining daemon answers 503 on submission
// and on health checks.
func TestServiceDrainRejects(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1}, true)
	s.Drain()
	code, out, _ := postBatch(t, ts.URL, `{"jobs":[`+testJobJSON("a", 1)+`]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d %v, want 503", code, out)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
}

// TestServiceSSE: Accept: text/event-stream switches the events endpoint
// to SSE framing.
func TestServiceSSE(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1}, true)
	code, out, _ := postBatch(t, ts.URL, `{"jobs":[`+testJobJSON("a", 51)+`]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitBatch(t, s, out["id"].(string))
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/batches/"+out["id"].(string)+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := string(readAll(t, resp))
	if resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("content type %q", resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(body, "event: batch-done\n") || !strings.Contains(body, "data: {") {
		t.Fatalf("not SSE-framed:\n%s", body)
	}
}

// TestServiceMetricsAndDebug: the Prometheus exposition carries the
// runner counters and the per-client families; /debug/queue decodes.
func TestServiceMetricsAndDebug(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2}, true)
	code, out, _ := postBatch(t, ts.URL, `{"client":"alice","jobs":[`+testJobJSON("a", 61)+`]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitBatch(t, s, out["id"].(string))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := string(readAll(t, resp))
	for _, want := range []string{
		"starvesim_runner_jobs_executed_total",
		`starved_jobs_total{client="alice"} 1`,
		`starved_batches_total{client="alice"} 1`,
		"starved_queue_depth 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	resp2, err := http.Get(ts.URL + "/debug/queue")
	if err != nil {
		t.Fatal(err)
	}
	var dq map[string]any
	if err := json.Unmarshal(readAll(t, resp2), &dq); err != nil {
		t.Fatal(err)
	}
	if _, ok := dq["depth"]; !ok {
		t.Fatalf("debug queue shape %v", dq)
	}
	// Dashboard renders.
	resp3, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readAll(t, resp3)), "starved — experiment service") {
		t.Fatal("dashboard did not render")
	}
}
