package sim

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The queue oracle drives a Simulator and a reference queue — a slice kept
// sorted by (at, seq) — through the same operations, decoded from a byte
// stream so that seeded tests, scripted cases and FuzzEventQueue share one
// interpreter. Every fired event must be the reference's minimum at the
// reference's clock, and after every operation Pending, Stats, Now, the
// liveness of every handle ever minted and the two tiers' structural
// invariants (checkQueue) must agree with it.

// Opcodes (first byte of an operation, modulo 8) and the bytes that follow.
const (
	opSchedule = 0 // also 1, 2: class, magnitude, flavor, a, b
	opCancel   = 3 // hi, lo: index into every handle ever minted, live or stale
	opStep     = 4
	opRun      = 5 // also 6: class, magnitude of the horizon's distance from now
	opRare     = 7 // arg: Reset when arg%16 == 0, else Step
)

// Delay classes (modulo 8), each scaled by a magnitude byte m.
const (
	delayNow      = 0 // 0
	delayNanos    = 1 // m ns: inside the current bucket, or just across its edge
	delayBuckets  = 2 // m quarter-buckets: across bucket boundaries
	delayWords    = 3 // m × 16 buckets: across bitmap words, up to half the wheel
	delayEdge     = 4 // m-128 ns around origin+horizon: the last wheel bucket and the first overflow one
	delayFar      = 5 // m × 10 ms: beyond the horizon from m = 7
	delayLaps     = 6 // 1–4 whole horizons + m ns: the same wheel index, laps apart
	delayHundreds = 7 // m × 100 µs
)

// Handler flavors (modulo 6); a and b parameterise them.
const (
	flavorPlain    = 0 // also 1
	flavorChildNow = 2 // schedules a plain child at now
	flavorChild    = 3 // schedules a plain child at delay(a, b)
	flavorCancel   = 4 // cancels handle a<<8|b (modulo the handles minted)
	flavorHalt     = 5
)

// wheelSpan is the time the wheel's window covers.
const wheelSpan = Time(wheelBuckets) << wheelShift

type queueOracle struct {
	t testing.TB
	s *Simulator

	queue   []modelEvent // live events sorted by (at, seq)
	handles []Handle     // by id
	alive   []bool       // by id
	now     Time
	halted  bool
	stats   Stats
}

func newQueueOracle(t testing.TB) *queueOracle {
	return &queueOracle{t: t, s: New(1)}
}

func (o *queueOracle) delay(class, m byte) Time {
	switch class % 8 {
	case delayNanos:
		return Time(m)
	case delayBuckets:
		return Time(m) << (wheelShift - 2)
	case delayWords:
		return Time(m) << (wheelShift + 4)
	case delayEdge:
		// The origin trails the clock after a Run into an idle stretch,
		// so the edge may already be in the past: After clamps that to now.
		edge := Time(o.s.origin+wheelBuckets) << wheelShift
		if d := edge - o.now + Time(m) - 128; d > 0 {
			return d
		}
	case delayFar:
		return Time(m) * 10 * time.Millisecond
	case delayLaps:
		return wheelSpan*Time(m%4+1) + Time(m)
	case delayHundreds:
		return Time(m) * 100 * time.Microsecond
	}
	return 0
}

// schedule books one event with both queues. Its handler first checks
// itself against the reference, then acts out its flavor.
func (o *queueOracle) schedule(d Time, flavor, a, b byte) {
	id := len(o.handles)
	ev := modelEvent{at: o.now + d, seq: o.stats.Scheduled, id: id}
	i := sort.Search(len(o.queue), func(i int) bool { return o.queue[i].at > ev.at })
	o.queue = append(o.queue, modelEvent{})
	copy(o.queue[i+1:], o.queue[i:])
	o.queue[i] = ev
	o.alive = append(o.alive, true)
	o.stats.Scheduled++
	o.stats.Live++
	o.handles = append(o.handles, o.s.After(d, func() {
		o.fired(id)
		switch flavor % 6 {
		case flavorChildNow:
			o.schedule(0, flavorPlain, 0, 0)
		case flavorChild:
			o.schedule(o.delay(a, b), flavorPlain, 0, 0)
		case flavorCancel:
			o.cancel(int(a)<<8 | int(b))
		case flavorHalt:
			o.s.Halt()
			o.halted = true
		}
	}))
}

func (o *queueOracle) fired(id int) {
	o.t.Helper()
	if len(o.queue) == 0 {
		o.t.Fatalf("event %d fired with the reference queue empty", id)
	}
	want := o.queue[0]
	if want.id != id || o.s.Now() != want.at {
		o.t.Fatalf("fired event %d at %v; reference minimum is event %d at (%v, seq %d)",
			id, o.s.Now(), want.id, want.at, want.seq)
	}
	o.queue = o.queue[1:]
	o.alive[id] = false
	o.now = want.at
	o.stats.Fired++
	o.stats.Live--
}

func (o *queueOracle) cancel(k int) {
	if len(o.handles) == 0 {
		return
	}
	id := k % len(o.handles)
	o.handles[id].Cancel()
	if !o.alive[id] {
		return
	}
	o.alive[id] = false
	o.stats.Cancelled++
	o.stats.Live--
	for i, ev := range o.queue {
		if ev.id == id {
			o.queue = append(o.queue[:i], o.queue[i+1:]...)
			return
		}
	}
	o.t.Fatalf("event %d alive but not in the reference queue", id)
}

func (o *queueOracle) step() {
	o.t.Helper()
	want := !o.halted && len(o.queue) > 0
	before := o.stats.Fired
	if got := o.s.Step(); got != want {
		o.t.Fatalf("Step = %v, want %v (%d queued, halted %v)", got, want, len(o.queue), o.halted)
	}
	if fired := o.stats.Fired - before; want != (fired == 1) {
		o.t.Fatalf("Step fired %d events", fired)
	}
}

func (o *queueOracle) run(d Time) {
	o.t.Helper()
	horizon := o.now + d
	o.halted = false
	o.s.Run(horizon)
	if o.halted {
		return // the clock stays at the halting event, checked by agree
	}
	if len(o.queue) > 0 && o.queue[0].at <= horizon {
		o.t.Fatalf("Run(%v) returned with event %d due at %v", horizon, o.queue[0].id, o.queue[0].at)
	}
	o.now = horizon
}

func (o *queueOracle) reset() {
	o.s.Reset(1)
	o.queue = o.queue[:0]
	for id := range o.alive {
		o.alive[id] = false
	}
	o.now, o.halted, o.stats = 0, false, Stats{}
}

// agree compares everything observable, then the queue's insides.
func (o *queueOracle) agree(op int) {
	o.t.Helper()
	if o.s.Now() != o.now {
		o.t.Fatalf("op %d: Now = %v, reference %v", op, o.s.Now(), o.now)
	}
	if o.s.Pending() != len(o.queue) || o.s.Stats() != o.stats {
		o.t.Fatalf("op %d: Pending %d, Stats %+v; reference %d, %+v",
			op, o.s.Pending(), o.s.Stats(), len(o.queue), o.stats)
	}
	for id, h := range o.handles {
		if h.Pending() != o.alive[id] {
			o.t.Fatalf("op %d: handle %d Pending = %v, reference %v", op, id, h.Pending(), o.alive[id])
		}
	}
	checkQueue(o.t, o.s)
}

// play interprets ops to the end (an operation cut short by the end of
// the stream reads zeros) and returns the number of events fired.
func (o *queueOracle) play(ops []byte) uint64 {
	o.t.Helper()
	var fired uint64
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	for n := 0; len(ops) > 0; n++ {
		switch op := next() % 8; op {
		case opCancel:
			o.cancel(int(next())<<8 | int(next()))
		case opStep:
			o.step()
		case opRun, opRun + 1:
			o.run(o.delay(next(), next()))
		case opRare:
			if next()%16 == 0 {
				fired += o.stats.Fired
				o.reset()
			} else {
				o.step()
			}
		default:
			o.schedule(o.delay(next(), next()), next(), next(), next())
		}
		o.agree(n)
	}
	return fired + o.stats.Fired
}

// checkQueue verifies the two tiers against each other and the arena:
// every overflow entry knows its heap position, obeys the heap order and
// lies at or beyond origin+wheelBuckets; a bucket's bit is set exactly
// when its list is non-empty, each list is doubly linked, strictly sorted
// by (at, seq) and holds one absolute bucket of the window; every live
// slot is in exactly one tier; and the tiers plus the free list account
// for every arena slot.
func checkQueue(t testing.TB, s *Simulator) {
	t.Helper()
	if b := int64(s.now >> wheelShift); s.origin > b {
		t.Fatalf("origin %d ahead of the clock's bucket %d", s.origin, b)
	}
	seen := make([]bool, len(s.arena))
	claim := func(slot int32, where string) *eventRec {
		if slot < 0 || int(slot) >= len(s.arena) {
			t.Fatalf("%s: slot %d outside the arena (%d)", where, slot, len(s.arena))
		}
		if seen[slot] {
			t.Fatalf("%s: slot %d queued twice", where, slot)
		}
		seen[slot] = true
		return &s.arena[slot]
	}
	for pos, slot := range s.heap {
		rec := claim(slot, "overflow")
		if rec.heapIdx != int32(pos) {
			t.Fatalf("overflow: slot %d at position %d records heapIdx %d", slot, pos, rec.heapIdx)
		}
		if b := int64(rec.at >> wheelShift); b-s.origin < wheelBuckets {
			t.Fatalf("overflow: slot %d in bucket %d, inside the window at origin %d", slot, b, s.origin)
		}
		if pos > 0 && s.less(slot, s.heap[(pos-1)/4]) {
			t.Fatalf("overflow: slot %d at position %d sorts before its parent", slot, pos)
		}
	}
	inWheel := 0
	// An unoccupied bucket's list ends are unspecified, so only occupied
	// ones are walked; the count below catches an event lost in the rest.
	for w, m := range s.occupied {
		for ; m != 0; m &= m - 1 {
			i := w<<6 + bits.TrailingZeros64(m)
			b := &s.wheel[i]
			prev := noSlot
			for slot := b.head; slot != noSlot; slot = s.arena[slot].next {
				rec := claim(slot, "wheel")
				abs := int64(rec.at >> wheelShift)
				switch {
				case rec.heapIdx != noSlot:
					t.Fatalf("wheel: slot %d records heapIdx %d", slot, rec.heapIdx)
				case rec.prev != prev:
					t.Fatalf("wheel: slot %d prev = %d, want %d", slot, rec.prev, prev)
				case abs&wheelMask != int64(i) || abs < s.origin || abs-s.origin >= wheelBuckets:
					t.Fatalf("wheel: slot %d of bucket %d filed at index %d, origin %d", slot, abs, i, s.origin)
				case prev != noSlot && !s.less(prev, slot):
					t.Fatalf("wheel: bucket %d not sorted at slot %d", i, slot)
				}
				prev = slot
				inWheel++
			}
			if prev == noSlot {
				t.Fatalf("wheel: bucket %d marked occupied but empty", i)
			}
			if b.tail != prev {
				t.Fatalf("wheel: bucket %d tail = %d, list ends at %d", i, b.tail, prev)
			}
		}
	}
	if inWheel+len(s.heap) != s.Pending() {
		t.Fatalf("Pending = %d, wheel %d + overflow %d", s.Pending(), inWheel, len(s.heap))
	}
	free := 0
	for f := s.freeHead; f != noSlot; f = s.arena[f].next {
		claim(f, "free list")
		free++
	}
	if free+s.Pending() != len(s.arena) {
		t.Fatalf("%d free + %d queued != %d arena slots", free, s.Pending(), len(s.arena))
	}
}

// TestQueueOracleSeeded plays seeded random streams. Uniform bytes give
// three schedules to every cancel, step and two runs, so queues grow to a
// few hundred events in both tiers and drain through every delay class.
func TestQueueOracleSeeded(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 6000)
		rng.Read(ops)
		o := newQueueOracle(t)
		if fired := o.play(ops); fired < 200 {
			t.Errorf("seed %d: only %d events fired; the stream exercises too little", seed, fired)
		}
	}
}

// The scripted cases below aim at what uniform bytes reach only by luck.
// They are also FuzzEventQueue's seed corpus.
var queueScripts = []struct {
	name string
	ops  []byte
}{
	{"tie across tiers", []byte{
		// A at 100 ms waits in the overflow tier; an event at 50 ms brings
		// it into the wheel; B and C, scheduled then for the same 100 ms,
		// must fire after it in scheduling order, C's child after both.
		opSchedule, delayFar, 10, flavorPlain, 0, 0,
		opSchedule, delayFar, 5, flavorPlain, 0, 0,
		opRun, delayFar, 5,
		opSchedule, delayFar, 5, flavorPlain, 0, 0,
		opSchedule, delayFar, 5, flavorChildNow, 0, 0,
		opSchedule, delayEdge, 0, flavorPlain, 0, 0,
		opRun, delayFar, 100,
	}},
	{"window edge", []byte{
		// Either side of origin+horizon to the nanosecond, then a run that
		// stops between them and schedules earlier than all that is left.
		opSchedule, delayEdge, 127, flavorPlain, 0, 0,
		opSchedule, delayEdge, 128, flavorPlain, 0, 0,
		opSchedule, delayEdge, 129, flavorChild, delayEdge, 128,
		opSchedule, delayEdge, 0, flavorPlain, 0, 0,
		opRun, delayFar, 6,
		opSchedule, delayNow, 0, flavorPlain, 0, 0,
		opSchedule, delayNanos, 1, flavorPlain, 0, 0,
		opStep, opStep, opStep,
		opRun, delayLaps, 0,
	}},
	{"cancel everywhere", []byte{
		// Three events in one bucket, one a word away, one in overflow:
		// cancel the bucket's head, its tail, the overflow one, then let a
		// handler cancel the last of the bucket and a stale handle.
		opSchedule, delayNanos, 10, flavorPlain, 0, 0,
		opSchedule, delayNanos, 20, flavorPlain, 0, 0,
		opSchedule, delayNanos, 30, flavorPlain, 0, 0,
		opSchedule, delayWords, 4, flavorPlain, 0, 0,
		opSchedule, delayFar, 200, flavorPlain, 0, 0,
		opSchedule, delayNanos, 5, flavorCancel, 0, 1,
		opCancel, 0, 0,
		opCancel, 0, 2,
		opCancel, 0, 4,
		opCancel, 0, 0,
		opRun, delayFar, 255,
	}},
	{"idle gaps and laps", []byte{
		// Only overflow events, horizons apart, all on one wheel index:
		// each dispatch jumps the origin over an empty wheel.
		opSchedule, delayLaps, 0, flavorPlain, 0, 0,
		opSchedule, delayLaps, 1, flavorChild, delayLaps, 3,
		opSchedule, delayLaps, 2, flavorChild, delayNow, 0,
		opSchedule, delayLaps, 3, flavorHalt, 0, 0,
		opStep,
		opRun, delayLaps, 3,
		opStep,
		opRun, delayLaps, 3,
		opRun, delayLaps, 3,
	}},
	{"reset mid-flight", []byte{
		opSchedule, delayHundreds, 3, flavorPlain, 0, 0,
		opSchedule, delayFar, 50, flavorPlain, 0, 0,
		opSchedule, delayWords, 200, flavorPlain, 0, 0,
		opStep,
		opRare, 0,
		opCancel, 0, 1,
		opCancel, 0, 2,
		opSchedule, delayHundreds, 3, flavorCancel, 0, 1,
		opSchedule, delayFar, 50, flavorPlain, 0, 0,
		opRun, delayFar, 100,
	}},
}

func TestQueueOracleScripted(t *testing.T) {
	for _, sc := range queueScripts {
		t.Run(sc.name, func(t *testing.T) {
			o := newQueueOracle(t)
			o.play(sc.ops)
			if o.stats.Fired == 0 {
				t.Error("script fired nothing")
			}
		})
	}
}

// FuzzEventQueue feeds arbitrary op streams to the oracle.
func FuzzEventQueue(f *testing.F) {
	for _, sc := range queueScripts {
		f.Add(sc.ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		newQueueOracle(t).play(ops)
	})
}
