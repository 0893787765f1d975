package sim

import "math/bits"

// The event queue is a calendar wheel over a pooled arena of event records,
// with an intrusive 4-ary min-heap behind it for the far future.
//
//   - Records live in one growable slice (the arena) and are recycled
//     through a free list after they fire or are cancelled, so scheduling
//     never allocates once the arena has reached the run's high-water mark.
//     Both tiers order int32 arena indices, never pointers or interfaces.
//   - The wheel is wheelBuckets buckets of 1<<wheelShift ns each. An event
//     at time t belongs to absolute bucket t>>wheelShift; the wheel holds
//     the absolute buckets [origin, origin+wheelBuckets), each at index
//     bucket&wheelMask, so one index never holds two absolute buckets. A
//     bucket is an intrusive doubly-linked list of records sorted by
//     (at, seq); an occupancy bitmap, scanned a word at a time, finds the
//     next non-empty one. Scheduling walks back from the bucket's tail —
//     one step for the usual "latest seq, latest time" event — dispatch
//     unlinks the head, Cancel unlinks anywhere: all O(1), no compares
//     against unrelated events.
//   - Events at or beyond origin+wheelBuckets (a retransmission timeout's
//     Timer record, a late flow's start) wait in the
//     overflow heap. The origin is the bucket of
//     the last event fired; each time it advances, the heap's roots that
//     the window now covers are pulled into their buckets. So every
//     overflow event lies at or beyond origin+wheelBuckets, every wheel
//     event below it, and the earliest event overall is the head of the
//     first occupied bucket — or the heap's root when the wheel is empty.
//
// Handles carry {slot, generation}: the generation increments every time a
// slot returns to the free list, so a stale Cancel or Pending on a reused
// slot is detected and ignored without keeping the record alive.
//
// Dispatch order is the total order (at, seq), seq being the global
// schedule counter — taken when the event is scheduled, or earlier, when
// its ticket was reserved (a lane's next head): buckets partition time,
// each list is sorted by it, and the heap is ordered by it. A Timer's
// record may be filed under an earlier (at, seq) than its deadline's, for
// a deadline put back after it was filed; earliest re-files it when it
// reaches the front, so it is dispatched in its true place. Which tier an
// event waited in never shows, so a fixed-seed run dispatches the same
// event sequence as it did under the heap alone, and under container/heap
// before that.

// Wheel geometry: 8.192 µs buckets, 8192 of them, a 67.1 ms window. Chosen
// by measurement (DESIGN.md, "Event-loop internals"): one bottleneck
// round trip of packet hops, ACKs and pacing wakes fits in the window,
// and a bucket seldom holds more than a few events.
const (
	wheelShift   = 13
	wheelBuckets = 1 << 13
	wheelMask    = wheelBuckets - 1
	wheelWords   = wheelBuckets / 64
)

const noSlot int32 = -1

// eventRec is one pooled event record: 48 bytes, so filing, dispatching
// and freeing an event read one cache line of it (TestHotPathBudget holds
// it there). Every event is a plain handler; fn is nilled when the slot
// is freed so the arena never pins a closure (and whatever it captures)
// beyond dispatch.
type eventRec struct {
	at  Time
	seq uint64 // tie-break: FIFO among equal timestamps
	fn  func()

	// moved is the Timer whose record this is while the record waits
	// under an earlier place (at, seq) than the timer's current one, and
	// nil otherwise: set by a Set to a later deadline, cleared when the
	// record is re-filed or freed.
	moved *Timer

	gen     uint32 // incremented on every free; stale-handle detection
	heapIdx int32  // position in Simulator.heap; noSlot when in the wheel or free
	prev    int32  // bucket-list predecessor; meaningful only while in the wheel
	next    int32  // bucket-list successor while in the wheel, free-list link while free
}

// bucket is one wheel slot's list ends. They are meaningful only while the
// bucket's occupancy bit is set, so neither New nor Reset initialises them.
type bucket struct{ head, tail int32 }

// alloc takes a record slot from the free list, extending the arena when
// the list is empty. The returned record keeps its generation (bumped at
// free time), so handles minted against it are distinguishable from handles
// of the slot's previous lives — including lives before a Reset, whose
// records wait, generations intact, in the arena's capacity: extending
// reslices into that capacity and appends only once it is used up.
func (s *Simulator) alloc() int32 {
	if s.freeHead != noSlot {
		slot := s.freeHead
		s.freeHead = s.arena[slot].next
		return slot
	}
	n := len(s.arena)
	if n < cap(s.arena) {
		s.arena = s.arena[:n+1]
	} else {
		s.arena = append(s.arena, eventRec{})
	}
	s.arena[n].heapIdx = noSlot
	return int32(n)
}

// free returns a slot to the free list, invalidating all outstanding
// handles to it and dropping the handler reference.
func (s *Simulator) free(slot int32) {
	rec := &s.arena[slot]
	rec.gen++
	rec.heapIdx = noSlot
	if rec.moved != nil {
		rec.moved = nil
	}
	rec.fn = nil
	rec.next = s.freeHead
	s.freeHead = slot
}

// less orders slots by (at, seq). Both fields together are unique, so the
// order is total and the dispatch sequence is deterministic.
func (s *Simulator) less(a, b int32) bool {
	ra, rb := &s.arena[a], &s.arena[b]
	if ra.at != rb.at {
		return ra.at < rb.at
	}
	return ra.seq < rb.seq
}

// wheelInsert links slot into its bucket's list in (at, seq) order. The
// walk starts at the tail: a newly scheduled event usually carries the
// highest seq so far (a ticketed one an older seq) and, more often than
// not, the latest time in its bucket.
func (s *Simulator) wheelInsert(slot int32) {
	rec := &s.arena[slot]
	i := uint(rec.at>>wheelShift) & wheelMask
	b := &s.wheel[i]
	if bit := uint64(1) << (i & 63); s.occupied[i>>6]&bit == 0 {
		s.occupied[i>>6] |= bit
		rec.prev, rec.next = noSlot, noSlot
		b.head, b.tail = slot, slot
		return
	}
	after := b.tail
	for after != noSlot && s.less(slot, after) {
		after = s.arena[after].prev
	}
	rec.prev = after
	if after == noSlot {
		rec.next = b.head
		b.head = slot
	} else {
		rec.next = s.arena[after].next
		s.arena[after].next = slot
	}
	if rec.next == noSlot {
		b.tail = slot
	} else {
		s.arena[rec.next].prev = slot
	}
}

// wheelUnlink removes slot from its bucket's list, clearing the occupancy
// bit when it was the only entry.
func (s *Simulator) wheelUnlink(slot int32) {
	rec := &s.arena[slot]
	i := uint(rec.at>>wheelShift) & wheelMask
	b := &s.wheel[i]
	switch {
	case rec.prev != noSlot:
		s.arena[rec.prev].next = rec.next
	case rec.next != noSlot:
		b.head = rec.next
	default:
		s.occupied[i>>6] &^= 1 << (i & 63)
		return
	}
	if rec.next != noSlot {
		s.arena[rec.next].prev = rec.prev
	} else {
		b.tail = rec.prev
	}
}

// file queues slot under its (at, seq): in the wheel when its bucket is in
// the window, in the overflow heap beyond it.
func (s *Simulator) file(slot int32) {
	if int64(s.arena[slot].at>>wheelShift)-s.origin < wheelBuckets {
		s.wheelInsert(slot)
	} else {
		s.heapPush(slot)
	}
}

// unfile takes slot out of whichever tier holds it.
func (s *Simulator) unfile(slot int32) {
	if i := s.arena[slot].heapIdx; i != noSlot {
		s.heapRemove(i)
		s.arena[slot].heapIdx = noSlot
	} else {
		s.wheelUnlink(slot)
	}
}

// earliest returns the queued record that fires next, or noSlot when the
// queue is empty. A timer's record that reaches the front under a deadline
// since put back is re-filed under the current one first (Timer), so the
// record returned is always in its true place. Otherwise it moves
// nothing: Run may yet leave the event where it is, beyond its horizon.
func (s *Simulator) earliest() int32 {
	slot := s.front()
	for slot != noSlot && s.arena[slot].moved != nil {
		s.refile(slot)
		slot = s.front()
	}
	return slot
}

// front returns the queued record filed first, or noSlot when the queue
// is empty.
func (s *Simulator) front() int32 {
	if s.live == len(s.heap) { // the wheel is empty
		if s.live == 0 {
			return noSlot
		}
		return s.heap[0]
	}
	i := uint(s.origin) & wheelMask
	if m := s.occupied[i>>6] >> (i & 63); m != 0 {
		return s.wheel[i+uint(bits.TrailingZeros64(m))].head
	}
	return s.earliestBeyond(i >> 6)
}

// earliestBeyond continues earliest's scan past the origin's bitmap word w:
// the following words in wheel order, ending on the bits of w below the
// origin's own, which are the window's last buckets. The caller has
// established that the wheel is not empty.
func (s *Simulator) earliestBeyond(w uint) int32 {
	for {
		w = (w + 1) & (wheelWords - 1)
		if m := s.occupied[w]; m != 0 {
			return s.wheel[w<<6+uint(bits.TrailingZeros64(m))].head
		}
	}
}

// pull moves into the wheel the overflow events its window has come to
// cover, after the origin advanced. They arrive in (at, seq) order and
// their buckets were out of the window until now, so each lands at its
// list's tail.
func (s *Simulator) pull() {
	for len(s.heap) > 0 {
		slot := s.heap[0]
		if int64(s.arena[slot].at>>wheelShift)-s.origin >= wheelBuckets {
			break
		}
		s.heapRemove(0)
		s.arena[slot].heapIdx = noSlot
		s.wheelInsert(slot)
	}
}

// heapPush appends slot and restores the heap property.
func (s *Simulator) heapPush(slot int32) {
	s.heap = append(s.heap, slot)
	s.siftUp(len(s.heap) - 1)
}

// heapRemove deletes the element at heap position i (the intrusive analogue
// of container/heap.Remove): the last element replaces it and is sifted in
// whichever direction restores the invariant.
func (s *Simulator) heapRemove(i int32) {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if int(i) == n {
		return
	}
	s.heap[i] = last
	s.arena[last].heapIdx = i
	s.siftDown(int(i))
	if s.arena[last].heapIdx == i {
		s.siftUp(int(i))
	}
}

func (s *Simulator) siftUp(i int) {
	slot := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !s.less(slot, s.heap[parent]) {
			break
		}
		moved := s.heap[parent]
		s.heap[i] = moved
		s.arena[moved].heapIdx = int32(i)
		i = parent
	}
	s.heap[i] = slot
	s.arena[slot].heapIdx = int32(i)
}

func (s *Simulator) siftDown(i int) {
	n := len(s.heap)
	slot := s.heap[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if s.less(s.heap[c], s.heap[best]) {
				best = c
			}
		}
		if !s.less(s.heap[best], slot) {
			break
		}
		moved := s.heap[best]
		s.heap[i] = moved
		s.arena[moved].heapIdx = int32(i)
		i = best
	}
	s.heap[i] = slot
	s.arena[slot].heapIdx = int32(i)
}

// fire dispatches slot, which earliest returned: it moves the origin to the
// event's bucket — which brings the event itself into the wheel if it was
// the overflow root of an otherwise idle stretch — unlinks the record from
// the head of its list and frees it (so it can be reused by anything the
// handler schedules), and invokes the handler.
func (s *Simulator) fire(slot int32) {
	rec := &s.arena[slot]
	s.now = rec.at
	s.floor = rec.seq + 1
	s.fired++
	s.live--
	b := int64(rec.at >> wheelShift)
	if b != s.origin {
		s.origin = b
		if len(s.heap) > 0 {
			s.pull()
		}
	}
	// wheelUnlink's head case, in line: this is once per event, and the
	// call cost SelfScheduling a tenth.
	if i := uint(b) & wheelMask; rec.next == noSlot {
		s.occupied[i>>6] &^= 1 << (i & 63)
	} else {
		s.wheel[i].head = rec.next
		s.arena[rec.next].prev = noSlot
	}
	// Copy the handler out before freeing: it may schedule new events that
	// reuse this very slot (and growing the arena may move it).
	fn := rec.fn
	s.free(slot)
	fn()
}
