package service

import (
	"sync"
	"time"
)

// Event is one observable state transition of a batch, streamed to
// clients as JSONL or SSE. The sequence number is per batch and dense, so
// a client that reconnects can verify it replayed the full history.
type Event struct {
	Seq   int64  `json:"seq"`
	Batch string `json:"batch"`
	// Type: "queued", "start", "retry", "done", "cached", "failed",
	// "job-cancelled", "batch-done", "batch-failed", "batch-cancelled".
	Type string `json:"type"`
	Job  string `json:"job,omitempty"`
	// Done/Total count terminal jobs against the batch size.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Attempt is the 1-based attempt the event belongs to (start/retry/
	// done/failed).
	Attempt   int    `json:"attempt,omitempty"`
	ElapsedMs int64  `json:"elapsed_ms,omitempty"`
	Err       string `json:"err,omitempty"`
	// Time is the wall-clock emission time (RFC3339Nano).
	Time string `json:"time"`
}

// Hub is a per-batch replay-then-follow event log. Events append under a
// lock; subscribers read by index and park on a broadcast channel when
// caught up, so a slow consumer can never block the workers publishing —
// it just reads a longer backlog on its next wake-up.
type Hub struct {
	mu     sync.Mutex
	events []Event
	wake   chan struct{}
	closed bool
}

// NewHub returns an empty hub.
func NewHub() *Hub { return &Hub{wake: make(chan struct{})} }

// Publish appends the event, stamping sequence and time.
func (h *Hub) Publish(ev Event) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	ev.Seq = int64(len(h.events))
	ev.Time = time.Now().UTC().Format(time.RFC3339Nano)
	h.events = append(h.events, ev)
	close(h.wake)
	h.wake = make(chan struct{})
	h.mu.Unlock()
}

// next returns the events at index ≥ from. When the consumer is caught
// up it gets an empty slice plus a channel that closes on the next
// publish (or on Close); open=false means the hub closed and no further
// events will ever arrive — the stream is complete once the backlog is
// drained.
func (h *Hub) next(from int) (evs []Event, wait <-chan struct{}, open bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if from < len(h.events) {
		return h.events[from:], nil, true
	}
	return nil, h.wake, !h.closed
}

// close marks the stream complete and wakes every parked subscriber.
// Publish after Close is a no-op.
func (h *Hub) close() {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		close(h.wake)
		h.wake = make(chan struct{})
	}
	h.mu.Unlock()
}
