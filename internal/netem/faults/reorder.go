package faults

import (
	"math/rand"
	"time"

	"starvation/internal/netem"
	"starvation/internal/packet"
	"starvation/internal/sim"
)

// ReorderConfig parameterizes a bounded reordering box: each packet is
// independently deferred with probability P by exactly Delay, letting
// packets sent up to Delay later overtake it.
type ReorderConfig struct {
	P     float64       // per-packet deferral probability
	Delay time.Duration // deferral amount (the reordering bound)
}

// Reorderer is the bounded reordering element. No flow pipeline carries
// it: reordering is outside the paper's model.
type Reorderer struct {
	cfg ReorderConfig
	rng *rand.Rand
	sim *sim.Simulator
	out netem.PacketHandler
	// lane holds the deferred packets: every deferral is the same Delay,
	// so they come due in the order they were deferred.
	lane sim.Lane[packet.Packet]
}

// NewReorderer returns a reordering element feeding out.
func NewReorderer(cfg ReorderConfig, rng *rand.Rand, s *sim.Simulator, out netem.PacketHandler) *Reorderer {
	r := &Reorderer{cfg: cfg, rng: rng, sim: s, out: out}
	r.lane.Init(s, out)
	return r
}

// Send forwards p immediately or defers it by the configured delay.
func (r *Reorderer) Send(p packet.Packet) {
	if r.cfg.P > 0 && r.rng.Float64() < r.cfg.P {
		r.lane.Push(r.sim.Now()+r.cfg.Delay, p)
		return
	}
	r.out(p)
}
