package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"starvation/internal/packet"
)

// TestLaneKeepsPushTimePlace interleaves lane pushes with plain events
// that tie with them, and requires the firing order, the clock and the
// counters of a simulator scheduling one event per push — the ties broken
// exactly as if each payload had been scheduled when it was pushed.
func TestLaneKeepsPushTimePlace(t *testing.T) {
	const hop = 40 * time.Microsecond
	for seed := int64(1); seed <= 10; seed++ {
		var got, want []int
		ls, es := New(1), New(1)
		var lane Lane[packet.Packet]
		lane.Init(ls, func(p packet.Packet) { got = append(got, int(p.Seq)) })
		rng := rand.New(rand.NewSource(seed))
		for id := 0; id < 3000; id++ {
			id := id
			switch k := rng.Intn(4); k {
			case 0, 1: // a lane payload and its per-event twin
				lane.Push(ls.Now()+hop, packet.Packet{Seq: int64(id)})
				es.At(es.Now()+hop, func() { want = append(want, id) })
			case 2: // a plain event, often tied with a payload
				d := []time.Duration{0, hop / 2, hop, 2 * hop}[rng.Intn(4)]
				ls.At(ls.Now()+d, func() { got = append(got, -id) })
				es.At(es.Now()+d, func() { want = append(want, -id) })
			default:
				ls.Step()
				es.Step()
			}
			if ls.Now() != es.Now() {
				t.Fatalf("seed %d op %d: now %v, per-event %v", seed, id, ls.Now(), es.Now())
			}
		}
		ls.Run(time.Second)
		es.Run(time.Second)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: lane fired in another order than per-event scheduling", seed)
		}
		lst, est := ls.Stats(), es.Stats()
		if lst.Scheduled != est.Scheduled || lst.Fired != est.Fired || lane.Len() != 0 {
			t.Fatalf("seed %d: %+v with %d queued; per-event %+v", seed, lst, lane.Len(), est)
		}
	}
}

// TestLanePushOutOfOrderPanics pins the FIFO contract: a payload due
// before the lane's tail cannot be queued behind it.
func TestLanePushOutOfOrderPanics(t *testing.T) {
	s := New(1)
	var lane Lane[packet.Packet]
	lane.Init(s, func(packet.Packet) {})
	lane.Push(2*time.Millisecond, packet.Packet{Seq: 1})
	defer func() {
		if recover() == nil {
			t.Error("Push before the tail's time did not panic")
		}
	}()
	lane.Push(time.Millisecond, packet.Packet{Seq: 2})
}
