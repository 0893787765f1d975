package sim

import "fmt"

// Lane is the event source of a FIFO delay element: a queue of payloads,
// each due at a time no earlier than the one before it, of which only the
// head is a live event. Push reserves the payload's place in the dispatch
// order (a ticket) when it is pushed; when the head fires, the lane
// schedules the next entry under that entry's own ticket and then hands
// the head's payload to the handler. Every payload therefore fires at the
// time and in the place an event scheduled at push time would have, and
// Stats().Scheduled and Stats().Fired count one each per payload, as they
// would for that event — but the event queue holds one record per lane,
// not one per payload.
//
// The head's payload waits in the lane itself, so a lane that holds one
// payload at a time — a zero-delay stage, a slow flow's propagation —
// touches nothing else. Each payload behind it costs one node, 64 B for a
// packet; the nodes of all of a simulator's lanes of one payload type come
// from one pool, recycled last-freed-first like the event arena's records,
// so a push writes the node the latest delivery released.
//
// A Lane is used in place, inside the element it serves: Init binds it,
// and it must not be copied after that. Released nodes are not cleared
// until reused, so T should be a plain value, such as a packet or an ACK,
// that holds nothing the collector must release.
type Lane[T any] struct {
	s      *Simulator
	pool   *lanePool[T]
	fn     func(T)
	fireFn func() // fire bound once, so scheduling the head never allocates

	head        T     // the oldest payload, while n > 0
	first, last int32 // the nodes of the payloads behind the head, while n > 1
	n           int   // payloads queued, the head included
	tail        Time  // the newest payload's time
}

// lanePool is the node store a simulator's lanes of one payload type
// share. Simulator.Reset empties it, keeping its capacity.
type lanePool[T any] struct {
	nodes []laneNode[T]
	free  int32 // head of the free list threaded through next; noSlot when empty
}

type laneNode[T any] struct {
	at   Time
	tk   ticket
	next int32 // the next node of the lane, or of the free list
	v    T
}

// resetter is what Simulator.Reset needs of a lane pool.
type resetter interface{ reset() }

func (p *lanePool[T]) reset() {
	p.nodes = p.nodes[:0]
	p.free = noSlot
}

// grow appends a node and returns its index. The pool doubles, so a deep
// queue's growth leaves behind garbage no larger than the pool itself.
func (p *lanePool[T]) grow() int32 {
	n := len(p.nodes)
	if n == cap(p.nodes) {
		nodes := make([]laneNode[T], n, max(64, 2*n))
		copy(nodes, p.nodes)
		p.nodes = nodes
	}
	p.nodes = p.nodes[:n+1]
	return int32(n)
}

// poolFor returns s's pool of nodes for payload type T, creating it on
// first use.
func poolFor[T any](s *Simulator) *lanePool[T] {
	for _, p := range s.pools {
		if lp, ok := p.(*lanePool[T]); ok {
			return lp
		}
	}
	lp := &lanePool[T]{free: noSlot}
	s.pools = append(s.pools, lp)
	return lp
}

// Init binds the lane to s and to the handler each payload is delivered
// to when its time comes.
func (l *Lane[T]) Init(s *Simulator, fn func(T)) {
	l.s, l.fn = s, fn
	l.pool = poolFor[T](s)
	l.fireFn = l.fire
}

// Len returns the number of payloads queued.
func (l *Lane[T]) Len() int { return l.n }

// Push queues v to be delivered at at, which must not precede the time of
// the payload pushed before it.
func (l *Lane[T]) Push(at Time, v T) {
	if l.n == 0 {
		l.n = 1
		l.head = v
		l.tail = at
		l.s.atTicket(at, l.s.reserve(), l.fireFn)
		return
	}
	p := l.pool
	i := p.free
	if i != noSlot {
		p.free = p.nodes[i].next
	} else {
		i = p.grow()
	}
	if l.n > 1 {
		p.nodes[l.last].next = i
	} else {
		l.first = i
	}
	l.last = i
	l.n++
	nd := &p.nodes[i]
	nd.v = v
	if at < l.tail {
		panic(fmt.Sprintf("sim: lane push at %v before its tail at %v", at, l.tail))
	}
	l.tail = at
	nd.at = at
	nd.tk = l.s.reserve()
}

// Reset empties the lane. The caller resets the simulator first, which
// empties the pool: the lane's nodes and its head's event are abandoned
// with it, not released one by one.
func (l *Lane[T]) Reset() {
	l.n, l.tail = 0, 0
}

// fire delivers the head. It first moves the next payload, if any, into
// the head and schedules it — its place is ahead of the firing head's, a
// later-or-equal time and a later ticket — so a handler that pushes onto
// this lane finds its head already live.
func (l *Lane[T]) fire() {
	v := l.head
	l.n--
	if l.n > 0 {
		p := l.pool
		i := l.first
		nd := &p.nodes[i]
		l.head = nd.v
		l.s.atTicket(nd.at, nd.tk, l.fireFn)
		l.first = nd.next
		nd.next = p.free
		p.free = i
	}
	l.fn(v)
}
