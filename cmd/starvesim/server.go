package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"starvation/internal/scenario"
	"starvation/internal/service"
)

// serverJobName is the job name the client submits under; the artifact
// fetch after the stream uses the same name.
const serverJobName = "cli"

// runServerPopulation runs a population experiment on a remote starved
// daemon instead of locally: it submits the spec as a one-job batch,
// streams the batch's events to stderr, then prints the job's artifact to
// stdout. The artifact is byte-identical to a local `-flows` run of the
// same spec — both paths render through core.PopulationResult.Render —
// so scripts can switch between local and remote execution freely.
//
// Its error carries the local mode's exit contract: 1 on runtime failure
// (unreachable daemon, failed batch, saturated queue), 2 when the daemon
// rejects the spec as malformed (HTTP 400 carries the same message a
// local run exits 2 with) or a NaN or infinite field keeps it from being
// sent, 3 after an interrupt (the batch is cancelled on the daemon
// best-effort).
func runServerPopulation(ctx context.Context, addr string, spec scenario.PopulationSpec) error {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")

	req := service.BatchRequest{
		Client: "starvesim",
		Jobs:   []service.JobRequest{{Name: serverJobName, PopulationSpec: spec}},
	}
	// Duration travels as DurationSec: PopulationSpec.Duration does not
	// serialize (it is a CLI-side time.Duration).
	if spec.Duration != 0 {
		req.Jobs[0].DurationSec = spec.Duration.Seconds()
		req.Jobs[0].PopulationSpec.Duration = 0
	}
	body, err := json.Marshal(req)
	if err != nil {
		// JSON has no NaN or infinity, so such a spec never reaches the
		// daemon: refuse it with the line the daemon's 400 would carry.
		if verr := spec.Validate(); verr != nil {
			return usage("%v", verr)
		}
		return fmt.Errorf("starvesim: encoding batch: %v", err)
	}

	st, err := submitBatch(ctx, base, body)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "starvesim: batch %s admitted by %s\n", st.ID, base)

	final, err := streamEvents(ctx, base, st.ID)
	if serr := stopped(ctx, "; batch cancelled on daemon"); serr != nil {
		cancelBatch(base, st.ID)
		return serr
	}
	if err != nil {
		return err
	}
	switch final {
	case "batch-done":
	case "batch-cancelled":
		return fmt.Errorf("starvesim: batch %s was cancelled on the daemon", st.ID)
	case "batch-failed":
		return fmt.Errorf("starvesim: batch %s failed; see the event stream above", st.ID)
	default:
		return fmt.Errorf("starvesim: event stream for %s ended without a terminal event (daemon drained?)", st.ID)
	}

	resp, err := get(ctx, base+"/batches/"+st.ID+"/artifacts/"+serverJobName, "artifact fetch")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	artifact, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("starvesim: reading artifact: %v", err)
	}
	fmt.Print(string(artifact))
	return nil
}

// submitBatch POSTs the batch and maps the daemon's status codes onto the
// CLI's exit conventions. 400 is a malformed spec — the body carries,
// after the job's name, the exact message a local run would exit 2 with,
// so it is a usage error.
func submitBatch(ctx context.Context, base string, body []byte) (service.BatchStatus, error) {
	var st service.BatchStatus
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/batches", bytes.NewReader(body))
	if err != nil {
		return st, fmt.Errorf("starvesim: %v", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return st, fmt.Errorf("starvesim: submitting batch: %v", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return st, fmt.Errorf("starvesim: decoding admission response: %v", err)
		}
		return st, nil
	case http.StatusBadRequest:
		// The daemon names the rejected job; the batch's one job is the
		// spec itself, so the message is the local run's.
		return st, usage("%s", strings.TrimPrefix(readError(resp.Body), fmt.Sprintf("job %q: ", serverJobName)))
	case http.StatusTooManyRequests:
		return st, fmt.Errorf("starvesim: daemon queue is full (retry after %ss): %s",
			resp.Header.Get("Retry-After"), readError(resp.Body))
	case http.StatusServiceUnavailable:
		return st, fmt.Errorf("starvesim: daemon is draining; try another instance")
	default:
		return st, fmt.Errorf("starvesim: daemon returned %s: %s", resp.Status, readError(resp.Body))
	}
}

// readError extracts the daemon's JSON error message, falling back to the
// raw body.
func readError(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, 1<<16))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(data))
}

// streamEvents follows the batch's JSONL event stream, mirroring each
// event to stderr as a human-readable progress line, and returns the
// terminal event type ("" if the stream ended without one).
func streamEvents(ctx context.Context, base, id string) (string, error) {
	resp, err := get(ctx, base+"/batches/"+id+"/events", "event stream")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	final := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue
		}
		fmt.Fprintf(os.Stderr, "starvesim: %s\n", eventLine(ev))
		if strings.HasPrefix(ev.Type, "batch-") {
			final = ev.Type
		}
	}
	return final, nil
}

// get issues a GET and returns its response if the status is 200 OK;
// what names the request in the error otherwise.
func get(ctx context.Context, url, what string) (*http.Response, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("starvesim: %v", err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("starvesim: %s: %v", what, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, fmt.Errorf("starvesim: %s returned %s: %s", what, resp.Status, readError(resp.Body))
	}
	return resp, nil
}

// eventLine renders one event for the stderr progress feed.
func eventLine(ev service.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s", ev.Batch, ev.Type)
	if ev.Job != "" {
		fmt.Fprintf(&b, " %s", ev.Job)
	}
	if ev.Attempt > 1 {
		fmt.Fprintf(&b, " (attempt %d)", ev.Attempt)
	}
	fmt.Fprintf(&b, " %d/%d", ev.Done, ev.Total)
	if ev.Err != "" {
		fmt.Fprintf(&b, ": %s", ev.Err)
	}
	return b.String()
}

// cancelBatch best-effort cancels the batch after a client-side
// interrupt, so the daemon doesn't keep simulating for a reader that
// left. Uses its own short deadline: the command's context is already
// cancelled.
func cancelBatch(base, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodDelete, base+"/batches/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := http.DefaultClient.Do(hreq); err == nil {
		resp.Body.Close()
	}
}
