package faults

import (
	"math/rand"

	"starvation/internal/netem"
	"starvation/internal/obs"
	"starvation/internal/packet"
	"starvation/internal/sim"
)

// DupConfig parameterizes a packet duplicator: each packet is forwarded
// once and, with probability P, a second copy follows immediately. Copies
// carry packet.Dup so downstream accounting can separate them from sender
// transmissions; the receiver sees them as ordinary duplicate arrivals and
// ACKs them, which is exactly how duplicated segments stress a CCA's loss
// detection in practice.
type DupConfig struct {
	P float64 // per-packet duplication probability
}

// validate reports the first problem with the configuration.
func (c DupConfig) validate() error { return probability("P", c.P) }

// Duplicator is the duplication element.
type Duplicator struct {
	cfg DupConfig
	rng *rand.Rand
	out netem.PacketHandler

	sim   *sim.Simulator
	probe obs.Probe

	Passed     int64 // original packets forwarded
	Duplicated int64 // extra copies injected
}

// NewDuplicator returns a duplication element feeding out.
func NewDuplicator(cfg DupConfig, rng *rand.Rand, out netem.PacketHandler) *Duplicator {
	return &Duplicator{cfg: cfg, rng: rng, out: out}
}

// SetProbe installs a lifecycle-event probe; each injected copy is
// announced as EvDup. The simulator supplies timestamps; without it events
// carry At zero.
func (d *Duplicator) SetProbe(s *sim.Simulator, p obs.Probe) {
	d.sim = s
	d.probe = p
}

// Reset returns the element to the state NewDuplicator(cfg, rng, out)
// would produce with a generator freshly seeded with seed.
func (d *Duplicator) Reset(cfg DupConfig, seed int64) {
	d.cfg = cfg
	d.rng.Seed(seed)
	d.sim, d.probe = nil, nil
	d.Passed, d.Duplicated = 0, 0
}

// Send forwards p and possibly an immediate duplicate.
func (d *Duplicator) Send(p packet.Packet) {
	d.Passed++
	d.out(p)
	if d.cfg.P > 0 && d.rng.Float64() < d.cfg.P {
		d.Duplicated++
		c := p
		c.Dup = true
		if d.probe != nil {
			var now sim.Time
			if d.sim != nil {
				now = d.sim.Now()
			}
			d.probe.Emit(obs.Event{Type: obs.EvDup, At: now, Flow: c.Flow,
				Seq: c.Seq, Bytes: c.Size, Queue: -1, Retx: c.Retx, Dup: true})
		}
		d.out(c)
	}
}
