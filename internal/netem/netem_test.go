package netem

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"starvation/internal/netem/jitter"
	"starvation/internal/obs"
	"starvation/internal/packet"
	"starvation/internal/sim"
	"starvation/internal/units"
)

// probeFunc adapts a closure to obs.Probe for tests.
type probeFunc func(obs.Event)

// thresholdMarker marks every packet arriving above a fixed queue depth —
// the "simple threshold-based heuristic" of §6.4.
type thresholdMarker struct{ bytes int }

func (t thresholdMarker) Mark(queuedBytes int) bool { return queuedBytes >= t.bytes }

func (f probeFunc) Emit(e obs.Event) { f(e) }

func TestLinkSerializationTiming(t *testing.T) {
	s := sim.New(1)
	var deliveries []time.Duration
	l := NewLink(s, units.Mbps(12), 0, func(p packet.Packet) {
		deliveries = append(deliveries, s.Now())
	})
	// Three 1500B packets arrive at once: 1ms serialization each.
	s.At(0, func() {
		for i := 0; i < 3; i++ {
			l.Enqueue(packet.Packet{Seq: int64(i * 1500), Size: 1500})
		}
	})
	s.Run(time.Second)
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	if len(deliveries) != 3 {
		t.Fatalf("deliveries = %d, want 3", len(deliveries))
	}
	for i := range want {
		if deliveries[i] != want[i] {
			t.Errorf("delivery %d at %v, want %v", i, deliveries[i], want[i])
		}
	}
}

func TestLinkIdleRestart(t *testing.T) {
	s := sim.New(1)
	var deliveries []time.Duration
	l := NewLink(s, units.Mbps(12), 0, func(p packet.Packet) {
		deliveries = append(deliveries, s.Now())
	})
	s.At(0, func() { l.Enqueue(packet.Packet{Size: 1500}) })
	// Second packet arrives after the link went idle: no stale backlog.
	s.At(10*time.Millisecond, func() { l.Enqueue(packet.Packet{Size: 1500}) })
	s.Run(time.Second)
	if deliveries[1] != 11*time.Millisecond {
		t.Errorf("second delivery at %v, want 11ms (idle restart)", deliveries[1])
	}
}

func TestLinkDropTail(t *testing.T) {
	s := sim.New(1)
	delivered := 0
	l := NewLink(s, units.Mbps(12), 3*1500, func(p packet.Packet) { delivered++ })
	var droppedSeqs []int64
	l.SetProbe(probeFunc(func(e obs.Event) {
		if e.Type == obs.EvDrop {
			droppedSeqs = append(droppedSeqs, e.Seq)
		}
	}))
	s.At(0, func() {
		for i := 0; i < 5; i++ {
			l.Enqueue(packet.Packet{Seq: int64(i), Size: 1500})
		}
	})
	s.Run(time.Second)
	if delivered != 3 {
		t.Errorf("delivered = %d, want 3 (buffer holds 3)", delivered)
	}
	if l.Dropped != 2 || len(droppedSeqs) != 2 {
		t.Errorf("dropped = %d (%v), want 2", l.Dropped, droppedSeqs)
	}
	// Drop-tail drops the latest arrivals.
	if droppedSeqs[0] != 3 || droppedSeqs[1] != 4 {
		t.Errorf("dropped seqs = %v, want [3 4]", droppedSeqs)
	}
}

func TestLinkQueueDepthAccounting(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, units.Mbps(12), 0, func(p packet.Packet) {})
	s.At(0, func() {
		for i := 0; i < 4; i++ {
			l.Enqueue(packet.Packet{Size: 1500})
		}
		if l.QueuedBytes() != 6000 {
			t.Errorf("QueuedBytes = %d, want 6000", l.QueuedBytes())
		}
		if l.queueDelay() != 4*time.Millisecond {
			t.Errorf("queueDelay = %v, want 4ms", l.queueDelay())
		}
	})
	s.At(2500*time.Microsecond, func() {
		if l.QueuedBytes() != 3000 {
			t.Errorf("QueuedBytes mid-drain = %d, want 3000", l.QueuedBytes())
		}
	})
	s.Run(time.Second)
	if l.QueuedBytes() != 0 {
		t.Errorf("QueuedBytes after drain = %d, want 0", l.QueuedBytes())
	}
	if l.MaxQueue != 6000 {
		t.Errorf("MaxQueue = %d, want 6000", l.MaxQueue)
	}
}

func TestLinkPrime(t *testing.T) {
	s := sim.New(1)
	var firstDelivery time.Duration
	l := NewLink(s, units.Mbps(12), 0, func(p packet.Packet) {
		if firstDelivery == 0 {
			firstDelivery = s.Now()
		}
	})
	s.At(0, func() {
		l.Prime(10 * time.Millisecond)
		l.Enqueue(packet.Packet{Size: 1500})
	})
	s.Run(time.Second)
	// The primed backlog delays the packet by 10ms plus its own 1ms.
	if firstDelivery != 11*time.Millisecond {
		t.Errorf("first delivery at %v, want 11ms", firstDelivery)
	}
}

func TestLinkECNMarking(t *testing.T) {
	s := sim.New(1)
	var marked, unmarked int
	l := NewLink(s, units.Mbps(12), 0, func(p packet.Packet) {
		if p.ECN {
			marked++
		} else {
			unmarked++
		}
	})
	l.SetMarker(thresholdMarker{bytes: 3000})
	s.At(0, func() {
		for i := 0; i < 5; i++ {
			l.Enqueue(packet.Packet{Size: 1500})
		}
	})
	s.Run(time.Second)
	// Packets 0,1 arrive below threshold; 2,3,4 at or above.
	if unmarked != 2 || marked != 3 {
		t.Errorf("marked=%d unmarked=%d, want 3/2", marked, unmarked)
	}
	if l.Marked != 3 || l.Dropped != 0 || l.Delivered != 5 {
		t.Errorf("link counters marked=%d dropped=%d delivered=%d, want 3/0/5",
			l.Marked, l.Dropped, l.Delivered)
	}
}

func TestDelayBoxNoReorder(t *testing.T) {
	s := sim.New(1)
	rng := rand.New(rand.NewSource(7))
	var seqs []int64
	box := NewDelayBox(s, &jitter.Uniform{Max: 20 * time.Millisecond, Rng: rng},
		func(p packet.Packet) { seqs = append(seqs, p.Seq) })
	for i := 0; i < 200; i++ {
		i := i
		s.At(time.Duration(i)*time.Millisecond, func() {
			box.Send(packet.Packet{Seq: int64(i)})
		})
	}
	s.Run(time.Minute)
	if len(seqs) != 200 {
		t.Fatalf("delivered %d, want 200", len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			t.Fatalf("reordering: %d before %d", seqs[i-1], seqs[i])
		}
	}
	if box.MaxApplied > 20*time.Millisecond {
		t.Errorf("MaxApplied = %v exceeds bound", box.MaxApplied)
	}
}

func TestAckDelayBoxNoReorder(t *testing.T) {
	s := sim.New(1)
	rng := rand.New(rand.NewSource(9))
	var order []int64
	box := NewAckDelayBox(s, &jitter.Uniform{Max: 15 * time.Millisecond, Rng: rng},
		func(a packet.Ack) { order = append(order, a.SackSeq) })
	for i := 0; i < 100; i++ {
		i := i
		s.At(time.Duration(i)*time.Millisecond, func() {
			box.Send(packet.Ack{SackSeq: int64(i)})
		})
	}
	s.Run(time.Minute)
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("ACK reordering at %d", i)
		}
	}
}

func TestLossGate(t *testing.T) {
	s := sim.New(1)
	passed := 0
	g := NewLossGate(0.5, rand.New(rand.NewSource(3)), func(p packet.Packet) { passed++ })
	_ = s
	const n = 10000
	for i := 0; i < n; i++ {
		g.Send(packet.Packet{Seq: int64(i)})
	}
	frac := float64(g.Dropped) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("drop fraction = %.3f, want ~0.5", frac)
	}
	if g.Passed != int64(passed) || g.Passed+g.Dropped != n {
		t.Errorf("accounting mismatch: passed=%d dropped=%d", g.Passed, g.Dropped)
	}
}

func TestLossGateZeroProb(t *testing.T) {
	g := NewLossGate(0, rand.New(rand.NewSource(1)), func(p packet.Packet) {})
	for i := 0; i < 100; i++ {
		g.Send(packet.Packet{})
	}
	if g.Dropped != 0 {
		t.Errorf("zero-probability gate dropped %d", g.Dropped)
	}
}

// Property: the link conserves packets — delivered + dropped = enqueued —
// and never exceeds its buffer.
func TestQuickLinkConservation(t *testing.T) {
	f := func(seed int64, bufPkts uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New(seed)
		buf := (int(bufPkts%16) + 1) * 1500
		delivered := 0
		l := NewLink(s, units.Mbps(10), buf, func(p packet.Packet) { delivered++ })
		n := rng.Intn(300) + 1
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Intn(100)) * time.Millisecond
			s.At(at, func() { l.Enqueue(packet.Packet{Size: 1500}) })
		}
		s.Run(time.Minute)
		if delivered+int(l.Dropped) != n {
			return false
		}
		return l.MaxQueue <= buf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the link is FIFO for any arrival pattern.
func TestQuickLinkFIFO(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New(seed)
		var got []int64
		l := NewLink(s, units.Mbps(5), 0, func(p packet.Packet) { got = append(got, p.Seq) })
		at := time.Duration(0)
		for i := 0; i < 100; i++ {
			at += time.Duration(rng.Intn(3)) * time.Millisecond
			seq := int64(i)
			t := at
			s.At(t, func() { l.Enqueue(packet.Packet{Seq: seq, Size: 1500}) })
		}
		s.Run(time.Minute)
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		return len(got) == 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLinkLifecycleEvents checks the probe sees enqueue/mark/dequeue/drop
// transitions with correct queue depths, and that per-flow counters agree.
func TestLinkLifecycleEvents(t *testing.T) {
	s := sim.New(1)
	var events []obs.Event
	l := NewLink(s, units.Mbps(12), 3*1500, func(p packet.Packet) {})
	l.SetMarker(thresholdMarker{bytes: 2 * 1500})
	l.SetProbe(probeFunc(func(e obs.Event) { events = append(events, e) }))
	s.At(0, func() {
		for i := 0; i < 4; i++ {
			l.Enqueue(packet.Packet{Flow: packet.FlowID(i % 2), Seq: int64(i * 1500), Size: 1500})
		}
	})
	s.Run(time.Second)

	count := map[obs.EventType]int{}
	for _, e := range events {
		count[e.Type]++
	}
	if count[obs.EvEnqueue] != 3 || count[obs.EvDrop] != 1 || count[obs.EvDequeue] != 3 {
		t.Fatalf("event counts = %v, want 3 enqueues, 1 drop, 3 dequeues", count)
	}
	// Packet 2 (flow 0) arrives with 3000B queued: at threshold, marked.
	if count[obs.EvMark] != 1 {
		t.Errorf("marks = %d, want 1", count[obs.EvMark])
	}
	// First enqueue sees depth 1500; final dequeue drains back to 0.
	if events[0].Type != obs.EvEnqueue || events[0].Queue != 1500 {
		t.Errorf("first event = %+v, want enqueue at depth 1500", events[0])
	}
	last := events[len(events)-1]
	if last.Type != obs.EvDequeue || last.Queue != 0 {
		t.Errorf("last event = %+v, want dequeue at depth 0", last)
	}
	f0, f1 := l.FlowStats(0), l.FlowStats(1)
	if f0.Enqueued != 2 || f1.Enqueued != 1 || f1.Dropped != 1 {
		t.Errorf("per-flow stats = %+v / %+v", f0, f1)
	}
	if f0.Marked != 1 || f1.Marked != 0 {
		t.Errorf("marked = %d / %d, want 1 / 0", f0.Marked, f1.Marked)
	}
	if l.Marked != 1 || l.Dropped != 1 {
		t.Errorf("link marked=%d dropped=%d, want 1/1", l.Marked, l.Dropped)
	}
	if got := l.FlowStats(99); got != (FlowLinkStats{}) {
		t.Errorf("unknown flow stats = %+v, want zeros", got)
	}
}

// TestLossGateProbe checks gate drops surface as EvDrop with queue -1.
func TestLossGateProbe(t *testing.T) {
	s := sim.New(1)
	var drops []obs.Event
	g := NewLossGate(1.0, rand.New(rand.NewSource(1)), func(p packet.Packet) {
		t.Error("gate with P=1 passed a packet")
	})
	g.SetProbe(s, probeFunc(func(e obs.Event) { drops = append(drops, e) }))
	s.At(5*time.Millisecond, func() {
		g.Send(packet.Packet{Flow: 1, Seq: 3000, Size: 1500})
	})
	s.Run(time.Second)
	if len(drops) != 1 {
		t.Fatalf("drops = %d, want 1", len(drops))
	}
	e := drops[0]
	if e.Type != obs.EvDrop || e.Queue != -1 || e.Flow != 1 || e.At != 5*time.Millisecond {
		t.Errorf("drop event = %+v", e)
	}
}
