package guard

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/debug"
)

// ErrKind classifies a RunError.
type ErrKind string

const (
	// kindPanic: the run panicked (element or scenario bug).
	kindPanic ErrKind = "panic"
	// KindDeadline: the run exceeded its wall-clock budget.
	KindDeadline ErrKind = "deadline"
	// KindCancelled: the run was stopped because its batch was cancelled
	// (not a failure of the run itself).
	KindCancelled ErrKind = "cancelled"
	// KindError: the run body returned an ordinary error (I/O, config).
	KindError ErrKind = "error"
	// KindExport: a telemetry/trace exporter (JSONL sink, metrics file)
	// failed to write. The simulation itself completed; its outputs are
	// suspect because the recorded stream is incomplete.
	KindExport ErrKind = "export"
)

// Retryable reports whether a failure of this kind is worth re-running:
// the fault is transient or environmental rather than a property of the
// configuration itself. Panics, blown deadlines, export failures, and
// ordinary errors all qualify — a flaky scenario, a hung job, or a full
// disk can succeed on the next attempt. Cancellation is terminal: the
// batch is going away, and retrying fights the operator.
// This table is the supervision contract internal/runner enforces.
func (k ErrKind) Retryable() bool {
	switch k {
	case kindPanic, KindDeadline, KindExport, KindError:
		return true
	}
	return false
}

// RunError is the structured failure of one scenario run: enough context
// (scenario ID, seed) to reproduce the failure offline, in a form a batch
// driver can serialize and skip past.
type RunError struct {
	Scenario string  `json:"scenario"`
	Seed     int64   `json:"seed,omitempty"`
	Kind     ErrKind `json:"kind"`
	Msg      string  `json:"msg"`
	// Stack is the panic stack trace, when Kind is kindPanic.
	Stack string `json:"stack,omitempty"`
}

// Error implements error.
func (e *RunError) Error() string {
	s := fmt.Sprintf("%s: %s: %s", e.Scenario, e.Kind, e.Msg)
	if e.Seed != 0 {
		s += fmt.Sprintf(" (seed %d)", e.Seed)
	}
	return s
}

// Capture runs fn, converting a panic into a RunError tagged with the
// scenario ID and seed. Returns nil when fn completes normally.
func Capture(scenario string, seed int64, fn func()) (rerr *RunError) {
	defer func() {
		if r := recover(); r != nil {
			rerr = &RunError{
				Scenario: scenario,
				Seed:     seed,
				Kind:     kindPanic,
				Msg:      fmt.Sprint(r),
				Stack:    string(debug.Stack()),
			}
		}
	}()
	fn()
	return nil
}

// Manifest accumulates the RunErrors of a batch for serialization to an
// errors.json the next tool (or human) can triage.
type Manifest struct {
	Errors []*RunError `json:"errors"`
}

// Add appends e; nil errors are ignored so callers can add
// unconditionally.
func (m *Manifest) Add(e *RunError) {
	if e != nil {
		m.Errors = append(m.Errors, e)
	}
}

// WriteFile serializes the manifest as indented JSON at path. An empty
// manifest writes `{"errors": []}` rather than nothing, so consumers can
// distinguish "clean batch" from "batch never ran".
func (m *Manifest) WriteFile(path string) error {
	out := m.Errors
	if out == nil {
		out = []*RunError{}
	}
	data, err := json.MarshalIndent(Manifest{Errors: out}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
