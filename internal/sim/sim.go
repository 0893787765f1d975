// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine is the substrate for the link emulator: every network element
// (bottleneck queue, delay boxes, endpoints) schedules callbacks on a shared
// virtual clock. Events with equal timestamps fire in scheduling order, so a
// run is a pure function of the scenario configuration and its RNG seeds.
//
// The engine itself draws no randomness. Every stochastic element — a CCA,
// a jitter policy, a loss or fault gate, a RED marker — owns a generator
// built with rng.New from a seed derived from the run seed (network.Config's
// Seed, a scenario's Opts.Seed); in a flow set, rng.Derive gives each
// flow's elements a stream apiece, so adding or enabling one element never
// perturbs another's stream.
//
// The event queue is allocation-free on the hot path: records live in a
// pooled arena, ordered by a calendar wheel for the next 67 ms and by an
// intrusive 4-ary min-heap beyond that (see queue.go).
//
// Every queued event is a plain func() handler; a packet or ACK rides in
// the element that schedules it, never in the event record. The queue
// holds elements, not packets: network elements schedule through two
// sources rather than through At. A FIFO delay element
// — the bottleneck's departures, a delay box, the hop between two
// links — keeps its packets in a Lane, of which only
// the head is a live event. Each packet reserves its place in the
// dispatch order (reserve, a ticket) when it enters the lane, and its
// event is scheduled in that place (atTicket) when it reaches the head, so
// it fires exactly where an event scheduled on entry would have: same
// time, same tie-break, same Stats().Scheduled and Fired. An endpoint's
// timeouts and wakes are Timers: one queued record each, re-armed in
// place, so a retransmission timeout pushed back by every ACK costs a
// ticket, not a heap removal and a push (timer.go). What the queue holds
// live is therefore lane heads and timers — O(elements + timers), however
// deep the queues — and a standing queue of packets never reaches the
// overflow heap. Both sources own their handlers, bound once, so neither
// allocates per event; At's Handle remains for one-off events.
package sim

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"starvation/internal/packet"
)

// Time is virtual time since the start of the simulation.
type Time = time.Duration

// Handle identifies a scheduled event so it can be cancelled. It names the
// event by arena slot plus the slot's generation at scheduling time, so a
// Handle outliving its event (fired or cancelled, slot since reused) is
// detected as stale and every operation on it is a no-op.
type Handle struct {
	s    *Simulator
	slot int32
	gen  uint32
}

// Cancel prevents the event from firing, releasing its record immediately.
// Cancelling an already-fired or already-cancelled event is a no-op.
func (h Handle) Cancel() {
	s := h.s
	if s == nil {
		return
	}
	if int(h.slot) >= len(s.arena) {
		return // stale: minted before a Reset, slot not handed out again yet
	}
	if s.arena[h.slot].gen != h.gen {
		return // stale: the event fired or was cancelled, slot may be reused
	}
	s.unfile(h.slot)
	s.free(h.slot)
	s.live--
	s.cancelled++
}

// pending reports whether the event is still scheduled to fire.
func (h Handle) pending() bool {
	return h.s != nil && int(h.slot) < len(h.s.arena) && h.s.arena[h.slot].gen == h.gen
}

// Simulator owns the virtual clock and the event queue.
type Simulator struct {
	now       Time
	arena     []eventRec           // pooled event records
	freeHead  int32                // head of the free-slot list (noSlot when empty)
	origin    int64                // absolute bucket (at>>wheelShift) of the last event fired
	heap      []int32              // overflow: 4-ary min-heap of the records at or beyond origin+wheelBuckets
	occupied  [wheelWords]uint64   // bit i set: wheel[i]'s list is non-empty
	wheel     [wheelBuckets]bucket // absolute bucket b waits at wheel[b&wheelMask]
	seq       uint64
	floor     uint64 // seqs below it at now are dispatched: the fired event's seq + 1
	fired     uint64
	cancelled uint64
	live      int // scheduled and not yet fired or cancelled
	halted    bool
	pools     []resetter // lane node pools, one per payload type (lane.go)

	ctx context.Context
}

// New returns an empty simulator. The simulator draws no randomness (see
// the package doc), so seed is unused; the parameter stays because
// callers outside this module pass one.
func New(seed int64) *Simulator {
	return &Simulator{freeHead: noSlot}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Stats summarizes event-loop activity for observability snapshots.
type Stats struct {
	Scheduled uint64 // places ever taken in the dispatch order: events scheduled plus tickets reserved
	Fired     uint64 // events executed
	Cancelled uint64 // events cancelled while still queued
	Live      int    // events currently awaiting dispatch
}

// Stats returns the event-loop counters.
func (s *Simulator) Stats() Stats {
	return Stats{Scheduled: s.seq, Fired: s.fired, Cancelled: s.cancelled, Live: s.live}
}

// scheduleSeq claims a pooled record for fn at t in the place tk reserved
// and files it in the wheel or the overflow heap.
func (s *Simulator) scheduleSeq(t Time, tk ticket, fn func()) Handle {
	slot := s.alloc()
	rec := &s.arena[slot]
	rec.at = t
	rec.seq = uint64(tk)
	rec.fn = fn
	s.live++
	s.file(slot)
	return Handle{s, slot, rec.gen}
}

// At schedules fn to run at absolute virtual time t, taking the next
// place in the dispatch order. Scheduling in the past panics: that is
// always a logic error in a network element.
func (s *Simulator) At(t Time, fn func()) Handle {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	return s.scheduleSeq(t, s.reserve(), fn)
}

// ticket is a place in the dispatch order reserved ahead of its event:
// reserve takes the seq an event scheduled at that moment would have
// taken, and atTicket later schedules an event in that place. Among
// events at one instant, a ticketed event fires where an event scheduled
// at reservation time would have fired. A ticket serves one event, and
// Reset voids every ticket reserved before it.
type ticket uint64

// reserve takes the next place in the dispatch order without scheduling
// anything. It counts in Stats().Scheduled like a scheduled event.
func (s *Simulator) reserve() ticket {
	tk := ticket(s.seq)
	s.seq++
	return tk
}

// atTicket schedules fn to run at t in the place tk reserved. It panics
// if (t, tk) is at or before the event being dispatched (or the last one
// dispatched at the current instant), since that place has been passed,
// and if tk was never reserved.
func (s *Simulator) atTicket(t Time, tk ticket, fn func()) Handle {
	if t < s.now || t == s.now && uint64(tk) < s.floor || uint64(tk) >= s.seq {
		panic(fmt.Sprintf("sim: ticket %d at %v is not ahead of the dispatch cursor (now %v, next seq at now %d, reserved %d)",
			tk, t, s.now, s.floor, s.seq))
	}
	return s.scheduleSeq(t, tk, fn)
}

// After schedules fn to run d after the current virtual time.
func (s *Simulator) After(d time.Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AfterPacket schedules fn(p) to run d after the current virtual time. It
// is a closure wrapper over After, allocating one closure per call, kept
// only for the bench module's per-layer ledger driver; network elements
// schedule packets through a Lane.
func (s *Simulator) AfterPacket(d time.Duration, fn func(packet.Packet), p packet.Packet) Handle {
	return s.After(d, func() { fn(p) })
}

// AfterAck schedules fn(a) to run d after the current virtual time, the
// ACK-path analogue of AfterPacket, and like it kept only for bench.
func (s *Simulator) AfterAck(d time.Duration, fn func(packet.Ack), a packet.Ack) Handle {
	return s.After(d, func() { fn(a) })
}

// ctxCheckEvery is the event-count cadence of the cancellation check:
// frequent enough that a cancelled run stops within microseconds of real
// time, rare enough that the atomic ctx.Err() load never shows up in
// profiles.
const ctxCheckEvery = 1024

// SetContext installs ctx as the run's cancellation signal: Run halts
// within ctxCheckEvery fired events of ctx being cancelled. The check
// only reads ctx.Err() — it schedules nothing and draws no randomness —
// so a run with a context is event-for-event identical to one without
// until the moment of cancellation. A nil ctx removes the check.
func (s *Simulator) SetContext(ctx context.Context) { s.ctx = ctx }

// ctxDone applies the context check at its event-count cadence and
// reports whether the run must halt. The cadence is event count rather
// than virtual time, so a livelocked run (events firing without the clock
// advancing) still reaches it. Shared by Run and Step so a Step-driven
// loop stops on the same signal as Run.
func (s *Simulator) ctxDone() bool {
	return s.ctx != nil && s.fired%ctxCheckEvery == 0 && s.ctx.Err() != nil
}

// Run executes events until the queue is empty, the horizon is reached, or
// the run is halted (a cancelled context). When the horizon or an
// empty queue ended the run the clock is left at the later of its current
// value and the horizon; a halted run leaves it at the last event fired,
// its pending events still ahead of it, so a later Run resumes where this
// one stopped.
func (s *Simulator) Run(horizon Time) {
	s.halted = s.ctx != nil && s.ctx.Err() != nil
	for {
		if s.halted {
			return
		}
		slot := s.earliest()
		if slot == noSlot || s.arena[slot].at > horizon {
			break
		}
		s.fire(slot)
		if s.ctxDone() {
			s.halted = true
		}
	}
	if s.now < horizon {
		s.now = horizon
		s.floor = 0
	}
}

// Step executes exactly one pending event and reports whether an event
// fired. It stops on the same signals as Run: a cancelled context stops
// the loop before the next event fires and is polled at Run's event-count
// cadence after it, and a halted simulator (a dead context) steps
// no further — so a Step-driven driver cannot outrun a deadline a
// Run-driven one honors. Run resets the halt latch on entry, as before.
func (s *Simulator) Step() bool {
	if s.ctx != nil && s.ctx.Err() != nil {
		s.halted = true
	}
	if s.halted {
		return false
	}
	slot := s.earliest()
	if slot == noSlot {
		return false
	}
	s.fire(slot)
	if s.ctxDone() {
		s.halted = true
	}
	return true
}

// Pending returns the number of live events in the queue. It is O(1): the
// simulator maintains the count across schedule, cancel, and dispatch, so
// elements may poll it in hot paths.
func (s *Simulator) Pending() int { return s.live }

// Reset returns the simulator to the state New(seed) would produce while
// keeping the arena, the wheel, the overflow heap's and the lane node
// pools' capacity, so a reused simulator schedules allocation-free up to
// the previous run's high-water mark. Its cost is the number of events
// still pending plus one pass over the occupancy bitmap, not that
// high-water mark: only occupied buckets are visited and only their words
// cleared.
//
// Every Lane on the simulator must be Reset after it, since a lane's own
// fields still describe the payloads Reset abandoned. A Timer needs
// nothing: its record is freed here, so it reads as disarmed.
//
// The pending records are freed, which bumps their generations like any
// fired event's, and the arena is truncated to length zero over the same
// backing array. Every record therefore keeps the generation its last free
// gave it — alloc re-extends into that capacity without zeroing — so every
// outstanding Handle is stale: its slot is either past the arena's length
// or holds a later generation, and a Cancel or Pending after Reset is a
// safe no-op, exactly as if the event had fired. With the free list empty
// a reset simulator hands out slots 0, 1, 2, … like a fresh one.
func (s *Simulator) Reset(seed int64) {
	for w := range s.occupied {
		m := s.occupied[w]
		if m == 0 {
			continue
		}
		s.occupied[w] = 0
		for ; m != 0; m &= m - 1 {
			for slot := s.wheel[w<<6+bits.TrailingZeros64(m)].head; slot != noSlot; {
				next := s.arena[slot].next
				s.free(slot)
				slot = next
			}
		}
	}
	for _, slot := range s.heap {
		s.free(slot)
	}
	s.arena = s.arena[:0]
	s.freeHead = noSlot
	s.heap = s.heap[:0]
	for _, p := range s.pools {
		p.reset()
	}
	s.origin = 0
	s.now = 0
	s.seq, s.floor, s.fired, s.cancelled = 0, 0, 0, 0
	s.live = 0
	s.halted = false
	s.ctx = nil
}
