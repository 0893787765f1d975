package sim

import "starvation/internal/packet"

// The event queue is an intrusive, index-based 4-ary min-heap over a pooled
// arena of event records. Three properties make it allocation-free on the
// hot path:
//
//   - Records live in one growable slice (the arena) and are recycled
//     through a free list after they fire or are cancelled, so scheduling
//     never allocates once the arena has reached the run's high-water mark.
//   - The heap orders int32 arena indices, not interface values, so there
//     is no container/heap boxing through `any` on push/pop.
//   - Each record stores its own heap position (intrusive), so Cancel
//     removes the record in O(log n) immediately instead of leaving a dead
//     corpse to be skipped at pop time.
//
// Handles carry {slot, generation}: the generation increments every time a
// slot returns to the free list, so a stale Cancel or Pending on a reused
// slot is detected and ignored without keeping the record alive.
//
// Ordering is (at, seq) with seq the global schedule counter — the exact
// FIFO tie-break of the previous container/heap implementation — so a
// fixed-seed run dispatches the identical event sequence.

// Payload kinds. A record carries either a plain thunk or a small typed
// payload (packet or ACK) with a matching handler, which lets hot call
// sites schedule without allocating a capturing closure per event.
const (
	kindFunc uint8 = iota
	kindPacket
	kindAck
)

const noSlot int32 = -1

// eventRec is one pooled event record. Only the fields selected by kind
// are meaningful; fn/pfn/afn are nilled when the slot is freed so the
// arena never pins a closure (and whatever it captures) beyond dispatch.
type eventRec struct {
	at  Time
	seq uint64 // tie-break: FIFO among equal timestamps

	fn  func()              // kindFunc
	pfn func(packet.Packet) // kindPacket
	afn func(packet.Ack)    // kindAck
	pkt packet.Packet
	ack packet.Ack

	gen      uint32 // incremented on every free; stale-handle detection
	heapIdx  int32  // position in Simulator.heap; noSlot when not queued
	nextFree int32  // free-list link; meaningful only while free
	kind     uint8
}

// alloc takes a record slot from the free list, extending the arena when
// the list is empty. The returned record keeps its generation (bumped at
// free time), so handles minted against it are distinguishable from handles
// of the slot's previous lives — including lives before a Reset, whose
// records wait, generations intact, in the arena's capacity: extending
// reslices into that capacity and appends only once it is used up.
func (s *Simulator) alloc() int32 {
	if s.freeHead != noSlot {
		slot := s.freeHead
		s.freeHead = s.arena[slot].nextFree
		return slot
	}
	n := len(s.arena)
	if n < cap(s.arena) {
		s.arena = s.arena[:n+1]
	} else {
		s.arena = append(s.arena, eventRec{})
	}
	s.arena[n].heapIdx, s.arena[n].nextFree = noSlot, noSlot
	return int32(n)
}

// free returns a slot to the free list, invalidating all outstanding
// handles to it and dropping the handler reference.
func (s *Simulator) free(slot int32) {
	rec := &s.arena[slot]
	rec.gen++
	rec.heapIdx = noSlot
	switch rec.kind {
	case kindFunc:
		rec.fn = nil
	case kindPacket:
		rec.pfn = nil
	case kindAck:
		rec.afn = nil
	}
	rec.nextFree = s.freeHead
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

// fireRoot dispatches the earliest event: it removes the root, frees its
// slot (so the record can be reused by anything the handler schedules), and
// invokes the handler. The caller guarantees the heap is non-empty.
func (s *Simulator) fireRoot() {
	slot := s.heap[0]
	rec := &s.arena[slot]
	s.now = rec.at
	s.fired++
	s.live--
	// Copy out by kind before freeing: the handler may schedule new events
	// that reuse this very slot (and growing the arena may move it).
	switch rec.kind {
	case kindFunc:
		fn := rec.fn
		s.heapRemove(0)
		s.free(slot)
		fn()
	case kindPacket:
		pfn, p := rec.pfn, rec.pkt
		s.heapRemove(0)
		s.free(slot)
		pfn(p)
	default: // kindAck
		afn, a := rec.afn, rec.ack
		s.heapRemove(0)
		s.free(slot)
		afn(a)
	}
}
