package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"starvation/internal/runner"
)

// BatchState is the lifecycle of a batch.
type BatchState string

const (
	// stateQueued: admitted, no job has started.
	stateQueued BatchState = "queued"
	// stateRunning: at least one job has started.
	stateRunning BatchState = "running"
	// stateDone: every job completed successfully.
	stateDone BatchState = "done"
	// stateFailed: every job terminal, at least one failed.
	stateFailed BatchState = "failed"
	// stateCancelled: cancelled by the client (or found mid-flight at
	// startup and re-queued — see resume).
	stateCancelled BatchState = "cancelled"
)

// terminal reports whether the state is final.
func (s BatchState) terminal() bool {
	return s == stateDone || s == stateFailed || s == stateCancelled
}

// batchRecord is the on-disk form of an admitted batch — enough to
// re-enqueue it after a daemon restart. It persists before the batch is
// scheduled, so a crash can lose at most a batch the client never got a
// 202 for.
type batchRecord struct {
	Schema  int        `json:"schema"`
	ID      string     `json:"id"`
	Client  string     `json:"client"`
	Weight  int        `json:"weight"`
	Name    string     `json:"name,omitempty"`
	Chaos   string     `json:"chaos,omitempty"`
	Jobs    []batchJob `json:"jobs"`
	Created time.Time  `json:"created"`
}

// batch is the in-memory runtime state of one admitted batch.
type batch struct {
	rec batchRecord
	dir string

	manifest *runner.Manifest
	hub      *Hub
	ctx      context.Context
	cancel   context.CancelFunc

	mu        sync.Mutex
	state     BatchState
	done      int // terminal jobs (success + cached + failed + cancelled)
	succeeded int // done + cached
	cached    int
	failed    int
	running   int
	finished  time.Time
}

// BatchStatus is the JSON shape of GET /batches/{id}.
type BatchStatus struct {
	ID      string     `json:"id"`
	Client  string     `json:"client"`
	Weight  int        `json:"weight"`
	Name    string     `json:"name,omitempty"`
	Chaos   string     `json:"chaos,omitempty"`
	State   BatchState `json:"state"`
	Jobs    int        `json:"jobs"`
	Done    int        `json:"done"`
	Cached  int        `json:"cached"`
	Failed  int        `json:"failed"`
	Running int        `json:"running"`
	Queued  int        `json:"queued"`
	Created time.Time  `json:"created"`
	// Finished is zero until the batch reaches a terminal state.
	Finished *time.Time `json:"finished,omitempty"`
}

func (b *batch) status() BatchStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BatchStatus{
		ID: b.rec.ID, Client: b.rec.Client, Weight: b.rec.Weight,
		Name: b.rec.Name, Chaos: b.rec.Chaos, State: b.state,
		Jobs: len(b.rec.Jobs), Done: b.done, Cached: b.cached,
		Failed: b.failed, Running: b.running,
		Queued:  len(b.rec.Jobs) - b.done - b.running,
		Created: b.rec.Created,
	}
	if !b.finished.IsZero() {
		f := b.finished
		st.Finished = &f
	}
	return st
}

// artifactPath returns the job's artifact file inside the batch tree.
func (b *batch) artifactPath(job string) string {
	return filepath.Join(b.dir, "artifacts", job+".txt")
}

// batchDirName validates an ID for use as a path element (defense against
// traversal via crafted batch IDs in URLs).
func validBatchID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, r := range id {
		ok := (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') || r == '-'
		if !ok {
			return false
		}
	}
	return true
}

// saveRecord writes the batch record in place. The batch directory was
// just made, so a crash mid-write leaves a torn record that loadExisting
// skips exactly like a missing one (a torn admission the client never got
// a 202 for); a temp file and rename would buy nothing.
func saveRecord(dir string, rec batchRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "batch.json"), append(data, '\n'), 0o644)
}

// loadRecord reads a persisted batch record.
func loadRecord(dir string) (batchRecord, error) {
	var rec batchRecord
	data, err := os.ReadFile(filepath.Join(dir, "batch.json"))
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("decoding %s: %w", filepath.Join(dir, "batch.json"), err)
	}
	if rec.Schema != runner.SchemaVersion {
		return rec, fmt.Errorf("batch %s: schema %d, want %d", rec.ID, rec.Schema, runner.SchemaVersion)
	}
	return rec, nil
}
