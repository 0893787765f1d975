// Package cca defines the congestion-control algorithm interface that every
// CCA in this repository implements, plus the shared measurement filters
// (windowed min/max, EWMA) that real CCAs use to separate congestive from
// non-congestive delay — the very filters the paper shows cannot always
// succeed.
//
// A CCA exposes two knobs the sender enforces jointly: a congestion window
// (bytes in flight cap) and a pacing rate. Window-based CCAs (Reno, Cubic,
// Vegas, FAST, Copa) leave the pacing rate unset; rate-based CCAs (PCC,
// Algorithm 1) leave the window effectively unbounded; BBR uses both.
//
// The registry is the constructor: Lookup(name)(mss, rng) builds a CCA at
// its package's defaults, which are unexported constants (a Config keeps
// only what a non-test caller sets, and fast and verus export nothing but
// their registration). Vegas, FAST and LEDBAT also have a method
// Restart(rm time.Duration, cwndPkts float64), which resumes a flow from
// a converged state with its minimum-RTT estimate pinned at rm: the
// Theorem 1 construction (core.EmulateTwoFlow) restarts its two flows
// through it.
package cca

import (
	"math/rand"
	"sort"
	"time"

	"starvation/internal/units"
)

// AckSignal carries everything a CCA may observe on an acknowledgment.
type AckSignal struct {
	// Now is the virtual time of the ACK's arrival at the sender.
	Now time.Duration
	// RTT is the round-trip sample of the segment that triggered the ACK,
	// or 0 when no valid sample exists (Karn's rule on retransmits).
	RTT time.Duration
	// AckedBytes is the number of bytes newly acknowledged cumulatively
	// (0 for duplicate ACKs).
	AckedBytes int
	// DeliveredBytes is the number of bytes newly confirmed received by
	// the receiver in any order (nonzero even when a hole keeps the
	// cumulative ACK pinned). Rate-based CCAs measure goodput from this.
	DeliveredBytes int
	// Packets is the number of segments the ACK covers (>1 when the
	// receiver delays or aggregates ACKs).
	Packets int
	// InFlight is the sender's outstanding byte count after processing.
	InFlight int
	// ECE is the ECN congestion echo.
	ECE bool
}

// LossSignal describes a loss detection at the sender.
type LossSignal struct {
	Now time.Duration
	// Bytes deemed lost by this detection.
	Bytes int
	// NewEvent is true when this loss begins a new recovery epoch; AIMD
	// CCAs react (halve) only once per epoch. Rate-based CCAs that count
	// raw loss (PCC) should accumulate Bytes regardless.
	NewEvent bool
	// Timeout is true for an RTO-driven detection (whole window lost).
	Timeout bool
	// InFlight is the outstanding byte count after the loss bookkeeping.
	InFlight int
}

// SendSignal notifies a CCA of a transmitted segment.
type SendSignal struct {
	Now   time.Duration
	Bytes int
	Seq   int64
	Retx  bool
}

// Algorithm is a congestion control algorithm.
//
// Window and PacingRate are pure reads: they change no state, and between
// two calls of OnAck, OnLoss, Ticker.OnTick or SendObserver.OnSend they
// return the same values however often they are asked. The sender relies
// on that (it consults both for every segment it considers sending), and
// an implementation may therefore compute them once per signal.
type Algorithm interface {
	// Name identifies the algorithm (stable, lowercase).
	Name() string
	// Window returns the congestion window in bytes; values <= 0 mean
	// "no window limit" (rate-based CCAs).
	Window() int
	// PacingRate returns the current pacing rate; 0 means "no pacing"
	// (pure ACK clocking).
	PacingRate() units.Rate
	// OnAck processes an acknowledgment.
	OnAck(AckSignal)
	// OnLoss processes a loss detection.
	OnLoss(LossSignal)
}

// Ticker is implemented by CCAs that need a periodic timer independent of
// the ACK clock (PCC monitor intervals, Algorithm 1's per-Rm update).
type Ticker interface {
	// TickInterval returns the desired timer period. It is re-queried after
	// every tick, so CCAs may adapt it (e.g. to the measured RTT).
	TickInterval() time.Duration
	// OnTick fires once per interval while the flow is active.
	OnTick(now time.Duration)
}

// SendObserver is implemented by CCAs that track transmissions.
type SendObserver interface {
	OnSend(SendSignal)
}

// Factory constructs a fresh algorithm instance for one flow. mss is the
// segment size in bytes; rng is a flow-private deterministic generator,
// seeded by the caller with rng.Derive(run seed, flow index, rng.CCA), a
// stream no other element of the run reads. Only BBR, Allegro and Vivace
// draw from it, and they panic without one. Callers build it with rng.New,
// which costs nothing until the first draw, so a CCA that never draws may
// ignore it.
type Factory func(mss int, rng *rand.Rand) Algorithm

var registry = map[string]Factory{}

// Register adds a named constructor; CCA packages call it from init so that
// importing a CCA package makes it available to the CLI tools by name.
// Registering a duplicate name panics: it is always a wiring bug.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic("cca: duplicate registration of " + name)
	}
	registry[name] = f
}

// Lookup returns the registered factory, or nil.
func Lookup(name string) Factory { return registry[name] }

// Names returns all registered algorithm names, sorted so listings and
// error messages are stable across runs (map iteration order is not).
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
