package guard

import (
	"fmt"
	"time"

	"starvation/internal/obs"
	"starvation/internal/packet"
)

// Monitor is an obs.Probe that folds the event stream into liveness state:
// per-flow delivery progress (stall detection) and event-derived counter
// inequalities. It is read-only with respect to the simulation — it
// schedules nothing and draws no randomness — so installing it never
// perturbs a realization.
type Monitor struct {
	flows []monFlow
}

type monFlow struct {
	tracked       bool
	stallAfter    time.Duration
	startAt       time.Duration
	lastDelivery  time.Duration
	everDelivered bool
	stalled       bool // latched so each stall episode reports once

	delivered, enqueued, dequeued int64
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor { return &Monitor{} }

// Reset returns the monitor to its freshly constructed state while keeping
// the per-flow slice capacity: tracking registrations, stall latches, and
// counters are all cleared, so a monitor recycled across runs (session
// reuse) behaves exactly like a new one.
func (m *Monitor) Reset() {
	m.flows = m.flows[:0]
}

// Track registers a flow for stall detection: it is flagged when no
// delivery lands for stallAfter of virtual time (measured from startAt
// until its first delivery). Untracked flows still feed the counter
// checks.
func (m *Monitor) Track(flow packet.FlowID, stallAfter, startAt time.Duration) {
	f := m.flow(flow)
	f.tracked = true
	f.stallAfter = stallAfter
	f.startAt = startAt
}

func (m *Monitor) flow(id packet.FlowID) *monFlow {
	for int(id) >= len(m.flows) {
		m.flows = append(m.flows, monFlow{})
	}
	return &m.flows[id]
}

// Emit implements obs.Probe.
func (m *Monitor) Emit(e obs.Event) {
	if e.Flow < 0 {
		return
	}
	f := m.flow(e.Flow)
	switch e.Type {
	case obs.EvEnqueue:
		f.enqueued++
	case obs.EvDequeue:
		f.dequeued++
	case obs.EvDeliver:
		f.delivered++
		f.lastDelivery = e.At
		f.everDelivered = true
		f.stalled = false // progress re-arms the stall latch
	}
}

// Sweep evaluates stall conditions at virtual time now and returns newly
// detected violations. A flow reports once per stall episode: the latch
// clears when a delivery lands.
func (m *Monitor) Sweep(now time.Duration) []Violation {
	var out []Violation
	for i := range m.flows {
		f := &m.flows[i]
		if !f.tracked || f.stalled || f.stallAfter <= 0 {
			continue
		}
		since := f.startAt // a flow that never delivered is measured from its start
		if f.everDelivered {
			since = f.lastDelivery
		}
		if now < since {
			continue // flow has not started yet
		}
		if idle := now - since; idle > f.stallAfter {
			f.stalled = true
			out = append(out, Violation{
				Kind: "stall",
				Flow: i,
				At:   now,
				Msg:  fmt.Sprintf("no delivery for %v (threshold %v, last delivery at %v)", idle, f.stallAfter, f.lastDelivery),
			})
		}
	}
	return out
}

// CheckCounters returns violations of the event-derived counter
// inequalities that must hold at any instant: a flow cannot dequeue more
// than it enqueued, nor deliver more than it dequeued.
func (m *Monitor) CheckCounters(now time.Duration) []Violation {
	var out []Violation
	for i := range m.flows {
		f := &m.flows[i]
		if f.dequeued > f.enqueued {
			out = append(out, Violation{Kind: "counter", Flow: i, At: now,
				Msg: fmt.Sprintf("dequeued %d > enqueued %d", f.dequeued, f.enqueued)})
		}
		if f.delivered > f.dequeued {
			out = append(out, Violation{Kind: "counter", Flow: i, At: now,
				Msg: fmt.Sprintf("delivered %d > dequeued %d", f.delivered, f.dequeued)})
		}
	}
	return out
}
