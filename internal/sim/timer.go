package sim

import "fmt"

// Timer is a re-armable event, used in place inside the element it serves
// (a sender's retransmission timeout, its pacing wake, a receiver's ACK
// flush): Init binds it, and it must not be copied after that.
//
// Each Set takes the next place in the dispatch order, exactly as At would,
// so a timer fires at the time and in the place of an event scheduled at
// its last Set, and Stats counts it as Cancel plus At would: one Scheduled
// per Set, one Cancelled per Set or Stop of an armed timer. What differs
// is the work. An armed timer keeps its one queued record. A Set to an
// earlier deadline re-files it at once; a Set to a later one — a timeout
// pushed back by every ACK — only records the new deadline, and the
// record is re-filed under it when it reaches the front of the queue, in
// earliest, before anything can observe it. Neither the clock, nor the
// dispatch cursor, nor the guards' event count ever sees the stale place.
//
// A timer is armed from Set until it fires or is stopped. Simulator.Reset
// disarms every timer: their records are freed like any pending event's.
type Timer struct {
	s  *Simulator
	fn func()
	h  Handle // the queued record, while armed
	at Time   // the deadline of the last Set
	tk ticket // its place in the dispatch order
}

// Init binds the timer to s and to the handler it runs when it fires.
func (t *Timer) Init(s *Simulator, fn func()) {
	t.s, t.fn = s, fn
}

// Armed reports whether the timer is set and has not yet fired or been
// stopped.
func (t *Timer) Armed() bool { return t.h.pending() }

// Stop disarms the timer; stopping a disarmed timer is a no-op.
func (t *Timer) Stop() { t.h.Cancel() }

// Set arms the timer to fire at at, replacing any deadline it had.
// Setting a time before now panics, as At does.
func (t *Timer) Set(at Time) {
	s := t.s
	if at < s.now {
		panic(fmt.Sprintf("sim: setting timer at %v before now %v", at, s.now))
	}
	tk := s.reserve()
	t.at, t.tk = at, tk
	if !t.h.pending() {
		t.h = s.scheduleSeq(at, tk, t.fn)
		return
	}
	s.cancelled++ // the deadline replaced, as Cancel would count it
	rec := &s.arena[t.h.slot]
	if at >= rec.at {
		// (at, tk) is after the record's place, tk being the newest seq:
		// let the record wait where it is. (A timer pushed back on every
		// ACK finds it marked already.)
		if rec.moved == nil {
			rec.moved = t
		}
		return
	}
	s.unfile(t.h.slot)
	rec.at, rec.seq, rec.moved = at, uint64(tk), nil
	s.file(t.h.slot)
}

// refile moves a timer's record that reached the front of the queue under
// a deadline since put back to the timer's current deadline and place.
func (s *Simulator) refile(slot int32) {
	rec := &s.arena[slot]
	s.unfile(slot)
	t := rec.moved
	rec.at, rec.seq, rec.moved = t.at, uint64(t.tk), nil
	s.file(slot)
}
