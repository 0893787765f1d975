// Package service turns the runner into a long-running experiment server:
// an HTTP API accepting batches of population experiments, a multi-tenant
// deficit-round-robin scheduler feeding a shared worker pool, bounded
// queueing with backpressure, live event streaming, and persistence
// through the content-addressed cache and manifest layer so a restarted
// daemon resumes in-flight batches without re-simulating finished jobs.
//
// The package applies the paper's subject — starvation under contention —
// to its own infrastructure: a 10,000-job parameter sweep and a 5-job
// probe share the daemon, and the scheduler's explicit fairness guarantee
// is that the sweep cannot starve the probe.
package service

import (
	"errors"
	"sync"
)

// errQueueFull is returned by Enqueue when admitting the batch would push
// the scheduler past its depth bound; the HTTP layer translates it to
// 429 Too Many Requests with a Retry-After hint.
var errQueueFull = errors.New("service: queue full")

// errClosed is returned by Enqueue after Close — the daemon is draining.
var errClosed = errors.New("service: scheduler closed")

// Item is one schedulable unit: a single job of some batch. The scheduler
// never looks inside Payload; fairness is accounted in whole jobs.
type Item struct {
	Client  string
	BatchID string
	Payload any
}

// clientQueue is one tenant's FIFO of pending items plus its
// deficit-round-robin state.
type clientQueue struct {
	name    string
	weight  int
	deficit int
	items   []Item
	// inRing tracks membership in the active ring explicitly: Cancel can
	// empty a queue that is still ringed (pruned lazily by Next), and a
	// re-enqueue before the prune must not add a second entry — that would
	// double the client's share.
	inRing bool
}

// Scheduler is a deficit-round-robin queue over per-client FIFOs. Each
// round a client's deficit grows by its weight and it may dispatch that
// many jobs before the cursor moves on, so relative throughput follows
// weights while a small batch from an idle client starts within one round
// of the heaviest competitor — the anti-starvation bound the service
// tests pin (a lightweight client waits at most one job slice per
// competing client, never the length of their backlogs).
//
// All methods are safe for concurrent use; Next blocks until an item is
// available or the scheduler closes.
type Scheduler struct {
	mu       sync.Mutex
	cond     *sync.Cond
	clients  map[string]*clientQueue
	active   []string // round-robin ring of clients with pending items
	cursor   int      // index into active of the client currently spending deficit
	depth    int
	maxDepth int
	closed   bool
}

// NewScheduler returns a scheduler bounded at maxDepth queued jobs
// (0 selects DefaultQueueDepth).
func NewScheduler(maxDepth int) *Scheduler {
	if maxDepth <= 0 {
		maxDepth = DefaultQueueDepth
	}
	s := &Scheduler{clients: map[string]*clientQueue{}, maxDepth: maxDepth}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// DefaultQueueDepth bounds queued jobs when the daemon doesn't configure
// a limit.
const DefaultQueueDepth = 4096

// Enqueue admits a batch's items under the client's weight, all or
// nothing: a batch that doesn't fit is rejected whole (partial admission
// would leave a batch that can never complete). Weight < 1 is treated
// as 1.
func (s *Scheduler) Enqueue(client string, weight int, items []Item) error {
	if weight < 1 {
		weight = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if s.depth+len(items) > s.maxDepth {
		return errQueueFull
	}
	q := s.clients[client]
	if q == nil {
		q = &clientQueue{name: client}
		s.clients[client] = q
	}
	q.weight = weight // the latest batch's weight wins for the tenant
	q.items = append(q.items, items...)
	s.depth += len(items)
	if !q.inRing && len(q.items) > 0 {
		// Joining clients enter the ring *behind* the cursor so they wait
		// at most one full round, and the current client's slice is not cut
		// short mid-deficit.
		s.active = append(s.active, client)
		q.inRing = true
	}
	s.cond.Broadcast()
	return nil
}

// Next blocks until an item is available and returns it, or returns
// ok=false once the scheduler has been closed. Closing discards queued
// items (the manifest layer re-runs them after a restart); Next never
// hands out work during a drain.
func (s *Scheduler) Next() (Item, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return Item{}, false
		}
		if s.depth > 0 {
			break
		}
		s.cond.Wait()
	}
	// Walk the ring from the cursor; every client with pending work is in
	// it, so the loop terminates within one lap plus one refill.
	for {
		if s.cursor >= len(s.active) {
			s.cursor = 0
		}
		q := s.clients[s.active[s.cursor]]
		if len(q.items) == 0 {
			// Drained mid-round (cancellation): drop from the ring.
			q.deficit = 0
			q.inRing = false
			s.active = append(s.active[:s.cursor], s.active[s.cursor+1:]...)
			continue
		}
		if q.deficit <= 0 {
			q.deficit += q.weight
		}
		it := q.items[0]
		q.items = q.items[1:]
		q.deficit--
		s.depth--
		if len(q.items) == 0 {
			// An emptied queue leaves the ring; its deficit does not bank
			// across idle periods (banked deficit would let a returning
			// heavy client burst past everyone).
			q.deficit = 0
			q.inRing = false
			s.active = append(s.active[:s.cursor], s.active[s.cursor+1:]...)
		} else if q.deficit <= 0 {
			s.cursor++
		}
		return it, true
	}
}

// cancel removes every queued item of the batch and returns how many were
// discarded. Items already handed to workers are unaffected (the server
// cancels those through the batch context).
func (s *Scheduler) cancel(batchID string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for _, q := range s.clients {
		kept := q.items[:0]
		for _, it := range q.items {
			if it.BatchID == batchID {
				removed++
				continue
			}
			kept = append(kept, it)
		}
		q.items = kept
	}
	s.depth -= removed
	// Emptied queues are pruned lazily by Next's ring walk.
	return removed
}

// queued returns the total queued items.
func (s *Scheduler) queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depth
}

// close stops the scheduler: queued items are discarded and every blocked
// and future Next returns ok=false. Idempotent.
func (s *Scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// queueInfo describes one client's queue for /debug/queue.
type queueInfo struct {
	Client  string `json:"client"`
	Weight  int    `json:"weight"`
	Deficit int    `json:"deficit"`
	Queued  int    `json:"queued"`
}

// snapshot returns per-client queue state sorted by client name.
func (s *Scheduler) snapshot() []queueInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]queueInfo, 0, len(s.clients))
	for _, q := range s.clients {
		if len(q.items) == 0 {
			continue
		}
		out = append(out, queueInfo{Client: q.name, Weight: q.weight, Deficit: q.deficit, Queued: len(q.items)})
	}
	sortQueueInfo(out)
	return out
}

func sortQueueInfo(in []queueInfo) {
	for i := 1; i < len(in); i++ {
		for j := i; j > 0 && in[j].Client < in[j-1].Client; j-- {
			in[j], in[j-1] = in[j-1], in[j]
		}
	}
}
