// Package timeseries folds the packet-lifecycle event stream into
// fixed-capacity, windowed per-flow series: delivery rate, smoothed
// RTT/queueing delay, congestion window, and drop counts, one Window per
// fixed stride of virtual time.
//
// The sampler is an obs.Probe and follows the observation-only contract:
// it schedules nothing and draws no randomness, so a run with a sampler
// attached is event-for-event identical to one without. Windows close on
// event arrival — the emulator's periodic rate samples reach every flow
// (including a fully starved one) at the trace-sampling cadence, so every
// flow's windows advance without the sampler owning a timer; Flush closes
// the partial window at the horizon.
//
// Memory discipline matches trace.Series.Reserve: rings are pre-sized
// from the run horizon (Reserve), flow slots from the flow count, so the
// steady state allocates nothing. When a run outlives its ring capacity
// the ring keeps the most recent windows and counts the evicted ones.
package timeseries

import (
	"time"

	"starvation/internal/obs"
	"starvation/internal/packet"
)

// Window is one stride of a flow's series: event counts and gauges folded
// over [Start, Start+stride). A window an event never reached has Empty
// semantics — all counters zero and gauges carried from the previous
// window where noted.
type Window struct {
	// Start is the window's opening virtual time (aligned to the stride).
	Start time.Duration `json:"start_ns"`
	// AckedBytes is payload newly covered by the cumulative ACK. Under
	// SACK a long-unrepaired hole freezes this while data keeps flowing,
	// so it measures cumulative-ACK progress, not goodput.
	AckedBytes int64 `json:"acked_bytes"`
	// DeliveredPkts/DeliveredBytes count receiver arrivals — the goodput
	// numerator for the window's delivery rate, matching the emulator's
	// own throughput traces.
	DeliveredPkts  int64 `json:"delivered_pkts"`
	DeliveredBytes int64 `json:"delivered_bytes"`
	// Drops counts discards anywhere on the path; GateDrops isolates the
	// pre-queue fault-gate share.
	Drops     int64 `json:"drops"`
	GateDrops int64 `json:"gate_drops"`
	// RTTSum/RTTCount accumulate the sender's RTT samples (ns).
	RTTSum   int64 `json:"rtt_sum_ns"`
	RTTCount int64 `json:"rtt_count"`
	// CwndBytes is the last observed congestion window (carried across
	// empty windows: a silent flow still has a window).
	CwndBytes int `json:"cwnd_bytes"`
	// QueueBytes is the bottleneck depth at the last rate sample.
	QueueBytes int `json:"queue_bytes"`
	// FaultBursts counts fault-state Good→Bad transitions inside the
	// window; FaultBad records the gate state at the window's close.
	FaultBursts int64 `json:"fault_bursts"`
	FaultBad    bool  `json:"fault_bad"`
}

// RateBps returns the window's delivery (goodput) rate over the stride;
// partial horizon windows are scaled by elapsed in Flush before export.
func (w *Window) RateBps(stride time.Duration) float64 {
	if stride <= 0 {
		return 0
	}
	return float64(w.DeliveredBytes) * 8 / stride.Seconds()
}

// MeanRTT returns the window's mean RTT sample, 0 when none landed.
func (w *Window) MeanRTT() time.Duration {
	if w.RTTCount == 0 {
		return 0
	}
	return time.Duration(w.RTTSum / w.RTTCount)
}

// FlowSeries is one flow's ring of closed windows plus the accumulating
// current window.
type FlowSeries struct {
	ring  []Window
	head  int // index of the oldest retained window
	count int // retained windows (<= cap(ring))
	// Evicted counts windows pushed out of a full ring — the series'
	// silent-truncation disclosure.
	Evicted int64

	cur      Window
	curSet   bool // cur has an assigned Start
	closed   int64
	minRTTNs int64

	faultBad bool // gate state carried across window boundaries
	cwnd     int  // last window, carried into empty windows
}

// Len returns the number of retained closed windows.
func (fs *FlowSeries) Len() int { return fs.count }

// At returns the i-th retained window, oldest first.
func (fs *FlowSeries) At(i int) *Window { return &fs.ring[(fs.head+i)%len(fs.ring)] }

// Windows copies the retained windows, oldest first.
func (fs *FlowSeries) Windows() []Window {
	out := make([]Window, fs.count)
	for i := range out {
		out[i] = *fs.At(i)
	}
	return out
}

// Closed returns the total number of windows closed over the run,
// including evicted ones.
func (fs *FlowSeries) Closed() int64 { return fs.closed }

// MinRTT returns the smallest RTT sample seen over the whole run (the
// propagation-delay estimate queueing delay is measured against), 0 when
// the flow produced no samples.
func (fs *FlowSeries) MinRTT() time.Duration { return time.Duration(fs.minRTTNs) }

func (fs *FlowSeries) push(w Window) {
	if len(fs.ring) == 0 {
		return
	}
	if fs.count == len(fs.ring) {
		fs.ring[fs.head] = w
		fs.head = (fs.head + 1) % len(fs.ring)
		fs.Evicted++
	} else {
		fs.ring[(fs.head+fs.count)%len(fs.ring)] = w
		fs.count++
	}
	fs.closed++
}

// OnWindow observes every closed window in stride order. elapsed is the
// window's true extent — the stride, except for a partial final window
// closed by Flush.
type OnWindow func(flow packet.FlowID, w *Window, elapsed time.Duration)

// Config parameterizes a Sampler.
type Config struct {
	// Stride is the window width (required, > 0).
	Stride time.Duration
	// OnWindow, when non-nil, observes each closed window (the online
	// detector's feed).
	OnWindow OnWindow
	// maxWindows caps each flow's ring; 0 selects defaultMaxWindows, and
	// tests lower it. Reserve may lower the actual allocation when the
	// horizon needs less.
	maxWindows int
}

// defaultMaxWindows bounds per-flow ring memory when no horizon is given:
// 10 minutes of 100 ms windows.
const defaultMaxWindows = 6000

// Sampler folds obs events into per-flow windowed series. It is an
// obs.Probe; like every probe it is single-writer (wrap in
// obs.Synchronized to share across goroutines).
type Sampler struct {
	cfg   Config
	flows []FlowSeries
	// horizon caps ring pre-sizing once Reserve is called.
	reserved int
}

// NewSampler returns a sampler for nflows flows (flow IDs beyond nflows
// grow the slot table on first sight — an allocation, so size correctly
// for the zero-steady-state-allocation guarantee).
func NewSampler(cfg Config, nflows int) *Sampler {
	if cfg.Stride <= 0 {
		cfg.Stride = 100 * time.Millisecond
	}
	if cfg.maxWindows <= 0 {
		cfg.maxWindows = defaultMaxWindows
	}
	return &Sampler{cfg: cfg, flows: make([]FlowSeries, nflows)}
}

// Reserve pre-sizes every flow's ring for a run of the given horizon, so
// the run itself never grows a buffer (the trace.Series.Reserve idiom).
// Call before the first event; flows discovered later get the same size.
func (s *Sampler) Reserve(horizon time.Duration) {
	n := int(horizon/s.cfg.Stride) + 2
	if n > s.cfg.maxWindows {
		n = s.cfg.maxWindows
	}
	s.reserved = n
	for i := range s.flows {
		if cap(s.flows[i].ring) < n {
			s.flows[i].ring = make([]Window, n)
		}
	}
}

func (s *Sampler) ringSize() int {
	if s.reserved > 0 {
		return s.reserved
	}
	return s.cfg.maxWindows
}

// Flow returns the series of flow id, nil when the flow never appeared.
func (s *Sampler) Flow(id packet.FlowID) *FlowSeries {
	if int(id) >= len(s.flows) {
		return nil
	}
	return &s.flows[id]
}

// Emit implements obs.Probe: fold one event into its flow's current
// window, closing windows the event's timestamp has passed.
func (s *Sampler) Emit(e obs.Event) {
	if e.Flow < 0 {
		return
	}
	for int(e.Flow) >= len(s.flows) {
		s.flows = append(s.flows, FlowSeries{})
	}
	fs := &s.flows[e.Flow]
	if fs.ring == nil {
		fs.ring = make([]Window, s.ringSize())
	}
	s.advance(e.Flow, fs, e.At)
	w := &fs.cur
	switch e.Type {
	case obs.EvAckRecv:
		w.AckedBytes += int64(e.Bytes)
	case obs.EvDeliver:
		w.DeliveredPkts++
		w.DeliveredBytes += int64(e.Bytes)
	case obs.EvDrop:
		w.Drops++
		if e.Queue < 0 {
			w.GateDrops++
		}
	case obs.EvCwndUpdate:
		w.CwndBytes = e.Bytes
		fs.cwnd = e.Bytes
	case obs.EvRateSample:
		w.QueueBytes = e.Queue
	case obs.EvRTTSample:
		w.RTTSum += e.Seq
		w.RTTCount++
		if fs.minRTTNs == 0 || e.Seq < fs.minRTTNs {
			fs.minRTTNs = e.Seq
		}
	case obs.EvFaultState:
		if e.Seq != 0 {
			w.FaultBursts++
			fs.faultBad = true
		} else {
			fs.faultBad = false
		}
		w.FaultBad = fs.faultBad
	}
}

// advance closes every window that ends at or before at, in order, and
// opens the window containing at.
func (s *Sampler) advance(id packet.FlowID, fs *FlowSeries, at time.Duration) {
	stride := s.cfg.Stride
	if !fs.curSet {
		fs.cur.Start = (at / stride) * stride
		fs.cur.CwndBytes = fs.cwnd
		fs.cur.FaultBad = fs.faultBad
		fs.curSet = true
		return
	}
	for at >= fs.cur.Start+stride {
		s.close(id, fs, stride)
		next := fs.cur.Start + stride
		fs.cur = Window{Start: next, CwndBytes: fs.cwnd, FaultBad: fs.faultBad}
	}
}

func (s *Sampler) close(id packet.FlowID, fs *FlowSeries, elapsed time.Duration) {
	fs.cur.FaultBad = fs.faultBad
	if s.cfg.OnWindow != nil {
		s.cfg.OnWindow(id, &fs.cur, elapsed)
	}
	fs.push(fs.cur)
}

// Flush closes every flow's partial window at the horizon. A flow whose
// current window opened before the horizon closes it with the true
// elapsed extent, so delivery rates of short runs (shorter than one
// stride) stay honest. Idempotent for a given horizon.
func (s *Sampler) Flush(horizon time.Duration) {
	for i := range s.flows {
		fs := &s.flows[i]
		if !fs.curSet {
			continue
		}
		// Close any whole windows the run left behind, then the partial.
		s.advance(packet.FlowID(i), fs, horizon)
		elapsed := horizon - fs.cur.Start
		if elapsed <= 0 {
			fs.curSet = false
			continue
		}
		s.close(packet.FlowID(i), fs, elapsed)
		fs.curSet = false
	}
}
