package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"starvation/internal/runner"
	"starvation/internal/scenario"
)

// daemonEnv makes the test binary behave as the starved command: the
// crash harness re-executes itself with it set instead of building the
// daemon, so it can SIGKILL a real process at chosen points.
const daemonEnv = "STARVED_TEST_AS_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// crashSweep is the batch every crash trial submits: eight seeds of a
// population long enough that a kill after the k-th job event lands while
// later jobs are still running.
const crashSweep = `{"client":"crash","sweep":{"flows":"vegas*4;reno*4","rate_mbps":48,"buffer_pkts":200,"duration_sec":8,"seed_from":1,"seeds":8}}`

const crashJobs = 8

// daemon is one starved process serving a data directory.
type daemon struct {
	t      *testing.T
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // cmd.Wait's result, valid once exited is closed
}

// startDaemon runs starved on data with an ephemeral port and returns
// once it prints its listening line.
func startDaemon(t *testing.T, data string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-data", data, "-jobs", "2")
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	logf, err := os.CreateTemp(t.TempDir(), "starved-*.log")
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{t: t, cmd: cmd, exited: make(chan struct{})}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		<-d.exited
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	go func() {
		_, _ = io.Copy(io.Discard, stdout)
		d.err = cmd.Wait()
		close(d.exited)
	}()
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "starved: listening on ")
	if err != nil || !ok {
		log, _ := os.ReadFile(logf.Name())
		t.Fatalf("daemon did not report its address (line %q, %v); log:\n%s", line, err, log)
	}
	d.base = "http://" + addr
	return d
}

// kill SIGKILLs the daemon and waits for it to be gone.
func (d *daemon) kill() {
	d.t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		d.t.Fatalf("SIGKILL: %v", err)
	}
	<-d.exited
}

// drain SIGINTs the daemon and requires the clean-drain exit status 3.
func (d *daemon) drain() {
	d.t.Helper()
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		d.t.Fatalf("SIGINT: %v", err)
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.t.Fatalf("daemon did not drain within 30s")
	}
	var exit *exec.ExitError
	if !errors.As(d.err, &exit) || exit.ExitCode() != 3 {
		d.t.Errorf("drained daemon exited with %v, want status 3", d.err)
	}
}

func (d *daemon) get(path string, v any) {
	d.t.Helper()
	resp, err := http.Get(d.base + path)
	if err != nil {
		d.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		d.t.Fatalf("GET %s: %d %v: %s", path, resp.StatusCode, err, body)
	}
	switch v := v.(type) {
	case *[]byte:
		*v = body
	default:
		if err := json.Unmarshal(body, v); err != nil {
			d.t.Fatalf("GET %s: %v: %s", path, err, body)
		}
	}
}

// submit posts the crash sweep and returns its batch ID.
func (d *daemon) submit() string {
	d.t.Helper()
	resp, err := http.Post(d.base+"/batches", "application/json", strings.NewReader(crashSweep))
	if err != nil {
		d.t.Fatalf("POST /batches: %v", err)
	}
	defer resp.Body.Close()
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusAccepted {
		d.t.Fatalf("POST /batches: %d %v", resp.StatusCode, err)
	}
	return st.ID
}

type event struct {
	Type string `json:"type"`
	Job  string `json:"job"`
}

// follow reads the batch's event stream, calling stop after each event
// until it returns true (the stream is then abandoned) or the stream
// ends with the batch terminal.
func (d *daemon) follow(id string, stop func(event) bool) {
	d.t.Helper()
	resp, err := http.Get(d.base + "/batches/" + id + "/events")
	if err != nil {
		d.t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			d.t.Fatalf("event %q: %v", sc.Bytes(), err)
		}
		if stop(ev) {
			return
		}
	}
}

// finish waits for the batch to go terminal and returns its artifacts by
// job name after checking it ended done.
func (d *daemon) finish(id string) map[string][]byte {
	d.t.Helper()
	d.follow(id, func(event) bool { return false })
	var st struct {
		State string `json:"state"`
		Done  int    `json:"done"`
	}
	d.get("/batches/"+id, &st)
	if st.State != "done" {
		d.t.Fatalf("batch %s ended %q (%d done), want done", id, st.State, st.Done)
	}
	var names []string
	d.get("/batches/"+id+"/artifacts", &names)
	arts := map[string][]byte{}
	for _, n := range names {
		var body []byte
		d.get("/batches/"+id+"/artifacts/"+n, &body)
		arts[n] = body
	}
	return arts
}

// restartWork reads a killed daemon's data directory and counts, per job
// of the batch, what a restart must redo. A job is satisfied when its
// manifest records it done under its fingerprint and its artifact file
// exists (the restart skips it); it has landed when its cache entry reads
// back intact (the restart restores it). fresh counts the jobs that are
// neither: exactly the ones the restart simulates. doneNotLanded counts
// the jobs the manifest calls done whose cache entry was still pending
// when the kill came.
func restartWork(t *testing.T, data, id string) (fresh, landed, doneNotLanded int) {
	t.Helper()
	dir := filepath.Join(data, "batches", id)
	raw, err := os.ReadFile(filepath.Join(dir, "batch.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Jobs []struct {
			Name        string                  `json:"name"`
			Spec        scenario.PopulationSpec `json:"spec"`
			DurationSec float64                 `json:"duration_sec"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Jobs) != crashJobs {
		t.Fatalf("batch record lists %d jobs, want %d", len(rec.Jobs), crashJobs)
	}
	cache := &runner.Cache{Dir: filepath.Join(data, "cache")}
	man := runner.LoadManifest(filepath.Join(dir, "manifest.json"))
	for _, j := range rec.Jobs {
		spec := j.Spec
		if j.DurationSec > 0 {
			spec.Duration = time.Duration(j.DurationSec * float64(time.Second))
		}
		fp := cache.Fingerprint(spec.Key())
		done := man.Done(j.Name, fp)
		_, statErr := os.Stat(filepath.Join(dir, "artifacts", j.Name+".txt"))
		_, hit := cache.Get(fp)
		if hit {
			landed++
		} else if done {
			doneNotLanded++
		}
		if !(done && statErr == nil) && !hit {
			fresh++
		}
	}
	return fresh, landed, doneNotLanded
}

// TestCrashRestartConverges is the daemon's crash-consistency harness: a
// batch whose daemon is SIGKILLed after its k-th job event (k drawn from
// a seed), or right after batch-done, must complete after a restart on
// the same data directory with artifacts byte-identical to an
// uninterrupted run, re-simulating exactly the jobs that were neither
// satisfied in the batch tree nor landed in the cache at the kill. Cache
// writes are write-behind, so a job can be done in the manifest, with its
// artifact written, before its cache entry lands.
func TestCrashRestartConverges(t *testing.T) {
	ref := startDaemon(t, t.TempDir())
	want := ref.finish(ref.submit())
	ref.drain()
	if len(want) != crashJobs {
		t.Fatalf("reference run produced %d artifacts, want %d", len(want), crashJobs)
	}

	type point struct {
		name string
		stop func(jobEvents int, ev event) bool
	}
	var points []point
	draw := rand.New(rand.NewSource(7)) // seeded kill points replay exactly
	// Each job emits a start and a terminal event, so k runs to
	// 2*crashJobs; one k per quarter of that span.
	const span = 2 * crashJobs / 4
	for q := 0; q < 4; q++ {
		k := 1 + q*span + draw.Intn(span)
		points = append(points, point{fmt.Sprintf("job-event-%d", k), func(n int, _ event) bool { return n == k }})
	}
	points = append(points, point{"batch-done", func(_ int, ev event) bool { return ev.Type == "batch-done" }})

	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			data := t.TempDir()
			d := startDaemon(t, data)
			id := d.submit()
			jobEvents := 0
			d.follow(id, func(ev event) bool {
				if ev.Job != "" {
					jobEvents++
				}
				return p.stop(jobEvents, ev)
			})
			d.kill()
			fresh, landed, doneNotLanded := restartWork(t, data, id)
			t.Logf("killed after %d job events; %d of %d cache entries had landed; %d jobs done but not landed",
				jobEvents, landed, crashJobs, doneNotLanded)

			re := startDaemon(t, data)
			got := re.finish(id)
			var q struct {
				Stats runner.Stats `json:"stats"`
			}
			re.get("/debug/queue", &q)
			re.drain()

			if len(got) != len(want) {
				t.Errorf("restarted batch has %d artifacts, want %d", len(got), len(want))
			}
			for name, body := range want {
				if !bytes.Equal(got[name], body) {
					t.Errorf("artifact %s differs from the uninterrupted run", name)
				}
			}
			if q.Stats.Executed != int64(fresh) {
				t.Errorf("restart executed %d jobs, want %d (the jobs neither satisfied in the batch tree nor landed in the cache)",
					q.Stats.Executed, fresh)
			}
			raw, err := os.ReadFile(filepath.Join(data, "batches", id, "manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			var snap struct {
				Schema int                             `json:"schema"`
				Jobs   map[string]runner.ManifestEntry `json:"jobs"`
			}
			if err := json.Unmarshal(raw, &snap); err != nil || snap.Schema != runner.SchemaVersion {
				t.Errorf("finished batch's manifest is not a bare snapshot (%v):\n%s", err, raw)
			}
		})
	}
}

// TestDrainOnEarlySignal pins that the daemon drains — exit 3 — on a
// SIGINT sent the moment its contract line is read: the signal handler is
// in place before that line goes out.
func TestDrainOnEarlySignal(t *testing.T) {
	startDaemon(t, t.TempDir()).drain()
}
