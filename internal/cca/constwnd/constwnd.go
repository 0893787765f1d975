// Package constwnd implements the paper's "silly" CCA: a fixed congestion
// window forever ("set cwnd = 10 always"). It trivially avoids starvation
// and converges in delay, but it is not f-efficient for any f > 0 — the
// corner of the impossibility triangle Definition 4 exists to exclude.
package constwnd

import (
	"math/rand"

	"starvation/internal/cca"
	"starvation/internal/units"
)

// DefaultPkts is the window, in packets, of the registered "constwnd".
const DefaultPkts = 10

// Const is a fixed-window CCA.
type Const struct {
	mss  int
	pkts int
}

// New returns a CCA with a constant window of pkts packets.
func New(mss, pkts int) *Const {
	if mss <= 0 {
		mss = 1500
	}
	if pkts <= 0 {
		pkts = DefaultPkts
	}
	return &Const{mss: mss, pkts: pkts}
}

func init() {
	cca.Register("constwnd", func(mss int, _ *rand.Rand) cca.Algorithm {
		return New(mss, DefaultPkts)
	})
}

// Name implements cca.Algorithm.
func (c *Const) Name() string { return "constwnd" }

// Window implements cca.Algorithm.
func (c *Const) Window() int { return c.mss * c.pkts }

// PacingRate implements cca.Algorithm.
func (c *Const) PacingRate() units.Rate { return 0 }

// OnAck implements cca.Algorithm.
func (c *Const) OnAck(cca.AckSignal) {}

// OnLoss implements cca.Algorithm.
func (c *Const) OnLoss(cca.LossSignal) {}
