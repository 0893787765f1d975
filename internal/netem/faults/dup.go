package faults

import (
	"math/rand"

	"starvation/internal/netem"
	"starvation/internal/packet"
)

// DupConfig parameterizes a packet duplicator: each packet is forwarded
// once and, with probability P, a second copy follows immediately.
type DupConfig struct {
	P float64 // per-packet duplication probability
}

// Duplicator is the duplication element. No flow pipeline carries it:
// duplication is outside the paper's model.
type Duplicator struct {
	cfg DupConfig
	rng *rand.Rand
	out netem.PacketHandler
}

// NewDuplicator returns a duplication element feeding out.
func NewDuplicator(cfg DupConfig, rng *rand.Rand, out netem.PacketHandler) *Duplicator {
	return &Duplicator{cfg: cfg, rng: rng, out: out}
}

// Send forwards p and possibly an immediate copy of it.
func (d *Duplicator) Send(p packet.Packet) {
	d.out(p)
	if d.cfg.P > 0 && d.rng.Float64() < d.cfg.P {
		d.out(p)
	}
}
