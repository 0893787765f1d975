package faults

import (
	"fmt"
	"math/rand"
	"time"

	"starvation/internal/netem"
	"starvation/internal/obs"
	"starvation/internal/packet"
	"starvation/internal/sim"
)

// ReorderConfig parameterizes a bounded reordering box: each packet is
// independently deferred with probability P by exactly Delay, letting
// packets sent up to Delay later overtake it. The displacement is bounded —
// a deferred packet arrives at most Delay after its in-order position — so
// the element models path-level reordering (ECMP churn, link-layer
// retransmission) without unbounded shuffling.
type ReorderConfig struct {
	P     float64       // per-packet deferral probability
	Delay time.Duration // deferral amount (the reordering bound)
}

// Validate reports the first problem with the configuration.
func (c ReorderConfig) Validate() error {
	if err := probability("P", c.P); err != nil {
		return err
	}
	if c.P > 0 && c.Delay <= 0 {
		return fmt.Errorf("Delay must be positive when P > 0 (got %v)", c.Delay)
	}
	return nil
}

// Reorderer is the bounded reordering element.
type Reorderer struct {
	cfg ReorderConfig
	rng *rand.Rand
	sim *sim.Simulator
	out netem.PacketHandler

	probe obs.Probe
	// lane holds the deferred packets: every deferral is the same Delay,
	// so they come due in the order they were deferred.
	lane sim.Lane[packet.Packet]

	Passed   int64 // packets forwarded in order
	Deferred int64 // packets deliberately deferred
}

// NewReorderer returns a reordering element feeding out.
func NewReorderer(cfg ReorderConfig, rng *rand.Rand, s *sim.Simulator, out netem.PacketHandler) *Reorderer {
	r := &Reorderer{cfg: cfg, rng: rng, sim: s, out: out}
	r.lane.Init(s, r.release)
	return r
}

// SetProbe installs a lifecycle-event probe; deferrals are reported as
// EvReorder with a queue depth of -1.
func (r *Reorderer) SetProbe(p obs.Probe) { r.probe = p }

// Held returns the number of packets currently deferred inside the box —
// a gauge for conservation ledgers.
func (r *Reorderer) Held() int64 { return int64(r.lane.Len()) }

// Reset returns the element to the state NewReorderer(cfg, rng, s, out)
// would produce with a generator freshly seeded with seed. Packets still
// deferred are abandoned (the caller resets the shared simulator first).
func (r *Reorderer) Reset(cfg ReorderConfig, seed int64) {
	r.cfg = cfg
	r.rng.Seed(seed)
	r.probe = nil
	r.lane.Reset()
	r.Passed, r.Deferred = 0, 0
}

// Send forwards p immediately or defers it by the configured delay.
func (r *Reorderer) Send(p packet.Packet) {
	if r.cfg.P > 0 && r.rng.Float64() < r.cfg.P {
		r.Deferred++
		if r.probe != nil {
			r.probe.Emit(obs.Event{Type: obs.EvReorder, At: r.sim.Now(), Flow: p.Flow,
				Seq: p.Seq, Bytes: p.Size, Queue: -1, Retx: p.Retx, Dup: p.Dup})
		}
		r.lane.Push(r.sim.Now()+r.cfg.Delay, p)
		return
	}
	r.Passed++
	r.out(p)
}

// release forwards a deferred packet at the end of its displacement.
func (r *Reorderer) release(p packet.Packet) {
	r.out(p)
}
