package netem

import (
	"math/rand"

	"starvation/internal/obs"
	"starvation/internal/packet"
	"starvation/internal/sim"
)

// LossGate drops packets with independent probability P (Bernoulli), the
// random-loss element of §5.4. A nil or zero-probability gate passes
// everything through.
type LossGate struct {
	P   float64
	Rng *rand.Rand
	out PacketHandler

	sim   *sim.Simulator
	probe obs.Probe

	Passed  int64
	Dropped int64
}

// NewLossGate returns a loss element feeding out.
func NewLossGate(p float64, rng *rand.Rand, out PacketHandler) *LossGate {
	return &LossGate{P: p, Rng: rng, out: out}
}

// SetProbe installs a lifecycle-event probe; drops are reported with a
// queue depth of -1 (the gate sits before the bottleneck queue). The
// simulator supplies drop timestamps; without it events carry At zero.
func (g *LossGate) SetProbe(s *sim.Simulator, p obs.Probe) {
	g.sim = s
	g.probe = p
}

// Reset returns the gate to the state NewLossGate(p, g.Rng, out) would
// produce: probability replaced, counters zeroed, probe cleared. The
// caller reseeds g.Rng (exported) to restart the random stream.
func (g *LossGate) Reset(p float64) {
	g.P = p
	g.sim, g.probe = nil, nil
	g.Passed, g.Dropped = 0, 0
}

// Send passes or drops p.
func (g *LossGate) Send(p packet.Packet) {
	if g.P > 0 && g.Rng.Float64() < g.P {
		g.Dropped++
		if g.probe != nil {
			var now sim.Time
			if g.sim != nil {
				now = g.sim.Now()
			}
			g.probe.Emit(obs.Event{Type: obs.EvDrop, At: now, Flow: p.Flow,
				Seq: p.Seq, Bytes: p.Size, Queue: -1, Retx: p.Retx})
		}
		return
	}
	g.Passed++
	g.out(p)
}
