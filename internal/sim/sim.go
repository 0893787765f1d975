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
// Seed, a scenario's Opts.Seed), so adding or enabling one element never
// perturbs another's stream.
//
// The event queue is allocation-free on the hot path: records live in a
// pooled arena, ordered by a calendar wheel for the next 67 ms and by an
// intrusive 4-ary min-heap beyond that (see queue.go), and the typed entry
// points (AtPacket/AfterPacket, AtAck/AfterAck) carry a packet or ACK
// payload inline in the record so per-packet call sites need no capturing
// closure.
//
// The queue holds elements, not packets. A FIFO delay element — the
// bottleneck's departures, a delay box, the reorderer's deferral, the
// hop between two links — keeps its packets in a Lane, of which only the
// head is a live event. Each packet reserves its place in the dispatch
// order (Reserve, a Ticket) when it enters the lane, and its event is
// scheduled in that place (AtTicket) when it reaches the head, so it fires
// exactly where an event scheduled on entry would have: same time, same
// tie-break, same Stats().Scheduled and Fired. What the queue holds live
// is therefore lane heads and timers — O(elements + timers), however deep
// the queues — and a standing queue of packets never reaches the overflow
// heap.
package sim

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"starvation/internal/packet"
	"starvation/internal/rng"
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
	rec := &s.arena[h.slot]
	if rec.gen != h.gen {
		return // stale: the event fired or was cancelled, slot may be reused
	}
	if rec.heapIdx != noSlot {
		s.heapRemove(rec.heapIdx)
	} else {
		s.wheelUnlink(h.slot)
	}
	s.free(h.slot)
	s.live--
	s.cancelled++
}

// Pending reports whether the event is still scheduled to fire.
func (h Handle) Pending() bool {
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
	rng       *rand.Rand
	halted    bool
	pools     []resetter // lane node pools, one per payload type (lane.go)

	wdEvery uint64
	wdFn    func() bool

	ctx context.Context
}

// New returns a simulator whose generator, Rand(), is seeded with seed.
// No network element draws from it (see the package doc); it costs nothing
// until something does.
func New(seed int64) *Simulator {
	return &Simulator{rng: rng.New(seed), freeHead: noSlot}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulator's generator, seeded by New and Reset, for
// drivers that want a stream tied to the simulator's seed.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Events returns the number of events fired so far (useful for benchmarks).
func (s *Simulator) Events() uint64 { return s.fired }

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

// schedule claims a pooled record for an event at t, taking the next
// place in the dispatch order, and queues it. The caller fills the
// kind-specific payload fields of the returned record; this is safe
// because nothing can run between schedule and that fill.
func (s *Simulator) schedule(t Time) (int32, *eventRec) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	seq := s.seq
	s.seq++
	return s.scheduleSeq(t, seq)
}

// scheduleSeq claims a pooled record for an event at (t, seq) and files
// it in the wheel or the overflow heap.
func (s *Simulator) scheduleSeq(t Time, seq uint64) (int32, *eventRec) {
	slot := s.alloc()
	rec := &s.arena[slot]
	rec.at = t
	rec.seq = seq
	s.live++
	if int64(t>>wheelShift)-s.origin < wheelBuckets {
		s.wheelInsert(slot)
	} else {
		s.heapPush(slot)
	}
	return slot, rec
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: that is always a logic error in a network element.
func (s *Simulator) At(t Time, fn func()) Handle {
	slot, rec := s.schedule(t)
	rec.kind = kindFunc
	rec.fn = fn
	return Handle{s, slot, rec.gen}
}

// Ticket is a place in the dispatch order reserved ahead of its event:
// Reserve takes the seq an event scheduled at that moment would have
// taken, and AtTicket later schedules an event in that place. Among
// events at one instant, a ticketed event fires where an event scheduled
// at reservation time would have fired. A ticket serves one event, and
// Reset voids every ticket reserved before it.
type Ticket uint64

// Reserve takes the next place in the dispatch order without scheduling
// anything. It counts in Stats().Scheduled like a scheduled event.
func (s *Simulator) Reserve() Ticket {
	tk := Ticket(s.seq)
	s.seq++
	return tk
}

// AtTicket schedules fn to run at t in the place tk reserved. It panics
// if (t, tk) is at or before the event being dispatched (or the last one
// dispatched at the current instant), since that place has been passed,
// and if tk was never reserved.
func (s *Simulator) AtTicket(t Time, tk Ticket, fn func()) Handle {
	if t < s.now || t == s.now && uint64(tk) < s.floor || uint64(tk) >= s.seq {
		panic(fmt.Sprintf("sim: ticket %d at %v is not ahead of the dispatch cursor (now %v, next seq at now %d, reserved %d)",
			tk, t, s.now, s.floor, s.seq))
	}
	slot, rec := s.scheduleSeq(t, uint64(tk))
	rec.kind = kindFunc
	rec.fn = fn
	return Handle{s, slot, rec.gen}
}

// After schedules fn to run d after the current virtual time.
func (s *Simulator) After(d time.Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AtPacket schedules fn(p) at absolute virtual time t. The packet rides
// inline in the pooled event record, so a call site that passes a stored
// handler (rather than constructing a closure) schedules without
// allocating.
func (s *Simulator) AtPacket(t Time, fn func(packet.Packet), p packet.Packet) Handle {
	slot, rec := s.schedule(t)
	rec.kind = kindPacket
	rec.pfn = fn
	rec.pkt = p
	return Handle{s, slot, rec.gen}
}

// AfterPacket schedules fn(p) to run d after the current virtual time.
func (s *Simulator) AfterPacket(d time.Duration, fn func(packet.Packet), p packet.Packet) Handle {
	if d < 0 {
		d = 0
	}
	return s.AtPacket(s.now+d, fn, p)
}

// AtAck schedules fn(a) at absolute virtual time t, the ACK-path analogue
// of AtPacket.
func (s *Simulator) AtAck(t Time, fn func(packet.Ack), a packet.Ack) Handle {
	slot, rec := s.schedule(t)
	rec.kind = kindAck
	rec.afn = fn
	rec.ack = a
	return Handle{s, slot, rec.gen}
}

// AfterAck schedules fn(a) to run d after the current virtual time.
func (s *Simulator) AfterAck(d time.Duration, fn func(packet.Ack), a packet.Ack) Handle {
	if d < 0 {
		d = 0
	}
	return s.AtAck(s.now+d, fn, a)
}

// Halt stops the run loop after the current event returns.
func (s *Simulator) Halt() { s.halted = true }

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

// Interrupted reports whether the installed context has been cancelled
// (the run, if halted, was cut short rather than completed).
func (s *Simulator) Interrupted() bool { return s.ctx != nil && s.ctx.Err() != nil }

// Watchdog installs fn to be consulted every everyN fired events during
// Run; returning false halts the run. The cadence is event count rather
// than virtual time so a livelocked run (events firing without the clock
// advancing) still reaches the watchdog. Watchdog calls schedule nothing
// and draw no randomness, so enabling one never perturbs a realization.
// A nil fn (or everyN of 0) removes the watchdog.
func (s *Simulator) Watchdog(everyN uint64, fn func() bool) {
	if everyN == 0 {
		fn = nil
	}
	s.wdEvery = everyN
	s.wdFn = fn
}

// guardsTripped applies the watchdog and context checks at their event-
// count cadences; it reports whether either demands a halt. Shared by Run
// and Step so a Step-driven loop honors the same guards as Run.
func (s *Simulator) guardsTripped() bool {
	if s.wdFn != nil && s.fired%s.wdEvery == 0 && !s.wdFn() {
		return true
	}
	if s.ctx != nil && s.fired%ctxCheckEvery == 0 && s.ctx.Err() != nil {
		return true
	}
	return false
}

// Run executes events until the queue is empty, the horizon is reached, or
// the run is halted (Halt, the watchdog, a cancelled context). When the
// horizon or an empty queue ended the run the clock is left at the later
// of its current value and the horizon; a halted run leaves it at the last
// event fired, its pending events still ahead of it, so a later Run
// resumes where this one stopped.
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
		if s.guardsTripped() {
			s.halted = true
		}
	}
	if s.now < horizon {
		s.now = horizon
		s.floor = 0
	}
}

// Step executes exactly one pending event and reports whether an event
// fired. It honors the same guards as Run: a cancelled context stops the
// loop before the next event fires, the watchdog is consulted at its usual
// event-count cadence, and a halted simulator (Halt, a tripped watchdog, or
// a dead context) steps no further — so a Step-driven driver cannot bypass
// the protections a Run-driven one gets. Run resets the halt latch on
// entry, as before.
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
	if s.guardsTripped() {
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
// the previous run's high-water mark. Every lane must be Reset after it. Its cost is the number of events still pending plus one
// pass over the occupancy bitmap, not that high-water mark: only occupied
// buckets are visited and only their words cleared.
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
	s.rng.Seed(seed)
	s.halted = false
	s.wdEvery, s.wdFn = 0, nil
	s.ctx = nil
}
