package timeseries

import (
	"testing"
	"time"

	"starvation/internal/obs"
	"starvation/internal/packet"
)

const stride = 100 * time.Millisecond

func newTestSampler(nflows int, on OnWindow) *Sampler {
	return NewSampler(Config{Stride: stride, OnWindow: on}, nflows)
}

func TestSamplerFoldsEvents(t *testing.T) {
	s := newTestSampler(1, nil)
	s.Reserve(time.Second)
	at := 10 * time.Millisecond
	s.Emit(obs.Event{Type: obs.EvAckRecv, At: at, Flow: 0, Bytes: 1500})
	s.Emit(obs.Event{Type: obs.EvAckRecv, At: at * 2, Flow: 0, Bytes: 1500})
	s.Emit(obs.Event{Type: obs.EvDeliver, At: at * 3, Flow: 0, Bytes: 1500})
	s.Emit(obs.Event{Type: obs.EvDrop, At: at * 4, Flow: 0, Queue: -1})
	s.Emit(obs.Event{Type: obs.EvDrop, At: at * 5, Flow: 0, Queue: 3000})
	s.Emit(obs.Event{Type: obs.EvCwndUpdate, At: at * 6, Flow: 0, Bytes: 30000})
	s.Emit(obs.Event{Type: obs.EvRTTSample, At: at * 7, Flow: 0, Seq: int64(40 * time.Millisecond)})
	s.Emit(obs.Event{Type: obs.EvRTTSample, At: at * 8, Flow: 0, Seq: int64(60 * time.Millisecond)})
	s.Emit(obs.Event{Type: obs.EvRateSample, At: at * 9, Flow: 0, Queue: 4500})
	s.Flush(stride)

	fs := s.Flow(0)
	if fs.Len() != 1 {
		t.Fatalf("windows = %d, want 1", fs.Len())
	}
	w := fs.At(0)
	if w.AckedBytes != 3000 || w.DeliveredPkts != 1 || w.DeliveredBytes != 1500 {
		t.Errorf("acked/delivered = %d/%d/%d, want 3000/1/1500",
			w.AckedBytes, w.DeliveredPkts, w.DeliveredBytes)
	}
	if w.Drops != 2 || w.GateDrops != 1 {
		t.Errorf("drops/gate = %d/%d, want 2/1", w.Drops, w.GateDrops)
	}
	if w.CwndBytes != 30000 || w.QueueBytes != 4500 {
		t.Errorf("cwnd/queue = %d/%d, want 30000/4500", w.CwndBytes, w.QueueBytes)
	}
	if w.RTTCount != 2 || w.MeanRTT() != 50*time.Millisecond {
		t.Errorf("rtt count/mean = %d/%v, want 2/50ms", w.RTTCount, w.MeanRTT())
	}
	if fs.MinRTT() != 40*time.Millisecond {
		t.Errorf("min rtt = %v, want 40ms", fs.MinRTT())
	}
	// Delivery rate comes from receiver arrivals, not cumulative-ACK
	// progress (a frozen SACK hole must not zero the goodput series).
	if got := w.RateBps(stride); got != 1500*8/0.1 {
		t.Errorf("rate = %g, want %g", got, 1500*8/0.1)
	}
}

func TestSamplerAdvancesAcrossEmptyWindows(t *testing.T) {
	var closed []time.Duration
	s := newTestSampler(1, func(_ packet.FlowID, w *Window, elapsed time.Duration) {
		if elapsed != stride {
			t.Errorf("interior window elapsed = %v, want stride", elapsed)
		}
		closed = append(closed, w.Start)
	})
	s.Reserve(time.Second)
	s.Emit(obs.Event{Type: obs.EvCwndUpdate, At: 10 * time.Millisecond, Flow: 0, Bytes: 20000})
	s.Emit(obs.Event{Type: obs.EvFaultState, At: 20 * time.Millisecond, Flow: 0, Seq: 1})
	// Jump 4 strides ahead: three interior windows must close in order,
	// each carrying the cwnd gauge and the sticky fault state.
	s.Emit(obs.Event{Type: obs.EvAckRecv, At: 410 * time.Millisecond, Flow: 0, Bytes: 1500})

	want := []time.Duration{0, stride, 2 * stride, 3 * stride}
	if len(closed) != len(want) {
		t.Fatalf("closed %d windows, want %d", len(closed), len(want))
	}
	for i, st := range want {
		if closed[i] != st {
			t.Errorf("window %d start = %v, want %v", i, closed[i], st)
		}
	}
	fs := s.Flow(0)
	for i := 1; i < fs.Len(); i++ {
		w := fs.At(i)
		if w.CwndBytes != 20000 {
			t.Errorf("empty window %d lost cwnd: %d", i, w.CwndBytes)
		}
		if !w.FaultBad {
			t.Errorf("empty window %d lost fault state", i)
		}
		if w.AckedBytes != 0 {
			t.Errorf("empty window %d has acked bytes %d", i, w.AckedBytes)
		}
	}
}

func TestSamplerFlowThatNeverSends(t *testing.T) {
	s := newTestSampler(2, nil)
	s.Reserve(time.Second)
	s.Emit(obs.Event{Type: obs.EvAckRecv, At: 50 * time.Millisecond, Flow: 0, Bytes: 1500})
	s.Flush(200 * time.Millisecond)

	fs := s.Flow(1)
	if fs == nil {
		t.Fatal("allocated flow slot missing")
	}
	if fs.Len() != 0 || fs.Closed() != 0 || fs.MinRTT() != 0 {
		t.Errorf("silent flow series = len %d closed %d minRTT %v, want all zero",
			fs.Len(), fs.Closed(), fs.MinRTT())
	}
	if s.Flow(99) != nil {
		t.Error("Flow beyond slot table should be nil")
	}
}

func TestSamplerRunShorterThanOneWindow(t *testing.T) {
	var gotElapsed time.Duration
	s := newTestSampler(1, func(_ packet.FlowID, w *Window, elapsed time.Duration) {
		gotElapsed = elapsed
	})
	s.Reserve(30 * time.Millisecond)
	s.Emit(obs.Event{Type: obs.EvDeliver, At: 5 * time.Millisecond, Flow: 0, Bytes: 1500})
	s.Flush(30 * time.Millisecond)

	fs := s.Flow(0)
	if fs.Len() != 1 {
		t.Fatalf("windows = %d, want 1 partial", fs.Len())
	}
	if gotElapsed != 30*time.Millisecond {
		t.Errorf("partial elapsed = %v, want 30ms (true extent, not stride)", gotElapsed)
	}
	// Rate over the true extent, not the stride: 1500 B in 30 ms.
	w := fs.At(0)
	if got, want := float64(w.DeliveredBytes)*8/gotElapsed.Seconds(), 1500*8/0.03; got != want {
		t.Errorf("true rate = %g, want %g", got, want)
	}
}

func TestSamplerEmptyWindowNoEvents(t *testing.T) {
	s := newTestSampler(1, func(_ packet.FlowID, _ *Window, _ time.Duration) {
		t.Error("OnWindow fired for a flow with no events")
	})
	s.Reserve(time.Second)
	s.Flush(time.Second)
	if fs := s.Flow(0); fs.Len() != 0 {
		t.Errorf("windows = %d, want 0", fs.Len())
	}
}

func TestSamplerRingEviction(t *testing.T) {
	s := NewSampler(Config{Stride: stride, maxWindows: 4}, 1)
	s.Reserve(10 * time.Second) // horizon wants 102 windows; cap wins
	for i := 0; i < 10; i++ {
		s.Emit(obs.Event{Type: obs.EvAckRecv,
			At: time.Duration(i) * stride, Flow: 0, Bytes: int(1500 + i)})
	}
	s.Flush(time.Second)

	fs := s.Flow(0)
	if fs.Len() != 4 {
		t.Fatalf("retained = %d, want ring cap 4", fs.Len())
	}
	if fs.Closed() != 10 {
		t.Errorf("closed = %d, want 10", fs.Closed())
	}
	if fs.Evicted != 6 {
		t.Errorf("evicted = %d, want 6", fs.Evicted)
	}
	// The ring keeps the newest windows, oldest first.
	for i := 0; i < 4; i++ {
		if want := time.Duration(6+i) * stride; fs.At(i).Start != want {
			t.Errorf("retained window %d start = %v, want %v", i, fs.At(i).Start, want)
		}
	}
	ws := fs.Windows()
	if len(ws) != 4 || ws[0].AckedBytes != 1506 || ws[3].AckedBytes != 1509 {
		t.Errorf("Windows() = %+v", ws)
	}
}

func TestSamplerFlushIdempotent(t *testing.T) {
	closes := 0
	s := newTestSampler(1, func(_ packet.FlowID, _ *Window, _ time.Duration) { closes++ })
	s.Reserve(time.Second)
	s.Emit(obs.Event{Type: obs.EvAckRecv, At: 10 * time.Millisecond, Flow: 0, Bytes: 1500})
	s.Flush(time.Second)
	// One close per stride to the horizon: the active window plus the
	// empty interior windows a starved flow still produces.
	if closes != 10 {
		t.Errorf("closes = %d, want 10 (one per stride to the horizon)", closes)
	}
	s.Flush(time.Second)
	if closes != 10 {
		t.Errorf("closes = %d after second Flush, want 10 (must be a no-op)", closes)
	}
}

func TestSamplerIgnoresLinkEvents(t *testing.T) {
	s := newTestSampler(1, nil)
	s.Emit(obs.Event{Type: obs.EvPhase, At: time.Second, Flow: -1, Seq: obs.PhaseMeasure})
	s.Flush(2 * time.Second)
	if fs := s.Flow(0); fs.Len() != 0 {
		t.Errorf("flow-less event opened a window")
	}
}

func TestSamplerZeroSteadyStateAllocs(t *testing.T) {
	s := newTestSampler(2, nil)
	s.Reserve(10 * time.Second)
	// Prime both flows so rings exist.
	s.Emit(obs.Event{Type: obs.EvAckRecv, At: 0, Flow: 0, Bytes: 1500})
	s.Emit(obs.Event{Type: obs.EvAckRecv, At: 0, Flow: 1, Bytes: 1500})
	allocs := testing.AllocsPerRun(1000, func() {
		s.Emit(obs.Event{Type: obs.EvAckRecv, At: 50 * time.Millisecond, Flow: 0, Bytes: 1500})
		s.Emit(obs.Event{Type: obs.EvRTTSample, At: 60 * time.Millisecond, Flow: 1, Seq: 1000})
	})
	if allocs != 0 {
		t.Errorf("steady-state allocs/op = %g, want 0", allocs)
	}
}
