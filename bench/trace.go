package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"starvation/internal/cca"
	"starvation/internal/netem/jitter"
	"starvation/internal/obs"
	"starvation/internal/units"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of a public call. Spans of one pass or batch share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counters in memory and writes them out once, at
// exit. A nil *tracer is "tracing off": every method is a no-op, so the
// untraced path carries one nil check and nothing else.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []span
	counters map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: map[string]int64{}}
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(op, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose endpoints were taken by the caller (the
// service client stamps its phases itself so the stamps are also its
// latency samples).
func (t *tracer) record(op, name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans)
}

func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += n
	t.mu.Unlock()
}

// total returns the summed duration of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// traceFile is the on-disk format of bench/out/trace.json.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Spans    []span           `json:"spans"`
	Counters map[string]int64 `json:"counters"`
	Metrics  metricSet        `json:"metrics"`
}

func (t *tracer) write(path string, tf traceFile) error {
	t.mu.Lock()
	tf.Spans, tf.Counters = t.spans, t.counters
	data, err := json.MarshalIndent(tf, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// countProbe is the counting obs.Probe the traced runs hand to
// scenario.Opts.Probe / PopulationConfig.Probe: exact counts by event
// type, nothing else. Probes are observation-only by contract, and the
// traced≡untraced digest check holds the emulator to it.
type countProbe struct {
	byType [32]int64
	// starts counts rate samples at virtual time 0 — one per flow per
	// network assembled — which is how flow-seconds are counted for
	// scenarios that run more than one network per call.
	starts int64
}

func (c *countProbe) Emit(e obs.Event) {
	c.byType[e.Type]++
	if e.Type == obs.EvRateSample && e.At == 0 {
		c.starts++
	}
}

func (c *countProbe) n(t obs.EventType) int64 { return c.byType[t] }

// callMeter counts every call through a wrapper and times one call in 64,
// chosen by the call counter so the sampled set is the same on every run.
type callMeter struct {
	calls   int64
	sampled int64
	ns      int64
}

const sampleMask = 63

// sample counts a call and reports whether this one is timed.
func (m *callMeter) sample() bool {
	m.calls++
	return m.calls&sampleMask == 0
}

// done records a timed call, less what the two clock reads themselves cost.
func (m *callMeter) done(t0 time.Time) {
	if d := int64(time.Since(t0)) - clockCost; d > 0 {
		m.ns += d
	}
	m.sampled++
}

// clockCost is the median cost of a time.Now/time.Since pair with nothing
// between them, measured once at start-up.
var clockCost = func() int64 {
	xs := make([]float64, 1001)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0))
	}
	return int64(median(xs))
}()

// busy extrapolates the sampled time to every call.
func (m *callMeter) busy() time.Duration {
	if m.sampled == 0 {
		return 0
	}
	return time.Duration(float64(m.ns) / float64(m.sampled) * float64(m.calls))
}

// ccaMeters is what one wrapped population accumulates.
type ccaMeters struct {
	ack, loss, tick, send callMeter
	jitter                callMeter
}

func (m *ccaMeters) ccaBusy() time.Duration {
	return m.ack.busy() + m.loss.busy() + m.tick.busy() + m.send.busy()
}

// meteredCCA forwards cca.Algorithm to the wrapped instance. The sender
// type-asserts cca.Ticker and cca.SendObserver, so wrapCCA returns one of
// four types that forwards each exactly when the inner CCA has it.
type meteredCCA struct {
	inner cca.Algorithm
	m     *ccaMeters
}

func (w *meteredCCA) Name() string           { return w.inner.Name() }
func (w *meteredCCA) Window() int            { return w.inner.Window() }
func (w *meteredCCA) PacingRate() units.Rate { return w.inner.PacingRate() }

func (w *meteredCCA) OnAck(s cca.AckSignal) {
	if !w.m.ack.sample() {
		w.inner.OnAck(s)
		return
	}
	t0 := time.Now()
	w.inner.OnAck(s)
	w.m.ack.done(t0)
}

func (w *meteredCCA) OnLoss(s cca.LossSignal) {
	if !w.m.loss.sample() {
		w.inner.OnLoss(s)
		return
	}
	t0 := time.Now()
	w.inner.OnLoss(s)
	w.m.loss.done(t0)
}

func (w *meteredCCA) tickInterval() time.Duration { return w.inner.(cca.Ticker).TickInterval() }

func (w *meteredCCA) onTick(now time.Duration) {
	if !w.m.tick.sample() {
		w.inner.(cca.Ticker).OnTick(now)
		return
	}
	t0 := time.Now()
	w.inner.(cca.Ticker).OnTick(now)
	w.m.tick.done(t0)
}

func (w *meteredCCA) onSend(s cca.SendSignal) {
	if !w.m.send.sample() {
		w.inner.(cca.SendObserver).OnSend(s)
		return
	}
	t0 := time.Now()
	w.inner.(cca.SendObserver).OnSend(s)
	w.m.send.done(t0)
}

type meteredTicker struct{ *meteredCCA }

func (w meteredTicker) TickInterval() time.Duration { return w.tickInterval() }
func (w meteredTicker) OnTick(now time.Duration)    { w.onTick(now) }

type meteredSender struct{ *meteredCCA }

func (w meteredSender) OnSend(s cca.SendSignal) { w.onSend(s) }

type meteredBoth struct{ *meteredCCA }

func (w meteredBoth) TickInterval() time.Duration { return w.tickInterval() }
func (w meteredBoth) OnTick(now time.Duration)    { w.onTick(now) }
func (w meteredBoth) OnSend(s cca.SendSignal)     { w.onSend(s) }

func wrapCCA(inner cca.Algorithm, m *ccaMeters) cca.Algorithm {
	w := &meteredCCA{inner: inner, m: m}
	_, tick := inner.(cca.Ticker)
	_, send := inner.(cca.SendObserver)
	switch {
	case tick && send:
		return meteredBoth{w}
	case tick:
		return meteredTicker{w}
	case send:
		return meteredSender{w}
	}
	return w
}

// meteredJitter wraps a jitter.Policy the same way. Policies that also
// implement jitter.PacketAware are left unwrapped by the caller: the delay
// box prefers DelayPacket, and forwarding it would need a second variant
// no workload here exercises.
type meteredJitter struct {
	inner jitter.Policy
	m     *callMeter
}

func (w *meteredJitter) Bound() time.Duration { return w.inner.Bound() }

func (w *meteredJitter) Delay(now time.Duration, seq int64) time.Duration {
	if !w.m.sample() {
		return w.inner.Delay(now, seq)
	}
	t0 := time.Now()
	d := w.inner.Delay(now, seq)
	w.m.done(t0)
	return d
}

func wrapJitter(p jitter.Policy, m *callMeter) jitter.Policy {
	if p == nil {
		p = jitter.None{}
	}
	if _, ok := p.(jitter.PacketAware); ok {
		return p
	}
	return &meteredJitter{inner: p, m: m}
}
