package netem

import (
	"math/rand"
)

// Marker is an active queue management policy deciding, per arriving
// packet, whether to set the ECN congestion-experienced mark. §6.4 of the
// paper conjectures that explicit marking — an unambiguous congestion
// signal, unlike delay or loss — coupled with CCAs that react to it and
// ignore small loss, can prevent starvation.
type Marker interface {
	// Mark reports whether a packet arriving with queuedBytes already in
	// the queue should be marked.
	Mark(queuedBytes int) bool
}

// REDMarker implements Random Early Detection marking (Floyd & Jacobson):
// below MinBytes nothing is marked; between MinBytes and MaxBytes the
// marking probability ramps linearly to MaxP; above MaxBytes everything is
// marked. The instantaneous queue stands in for RED's EWMA — our fluid
// queue is already smooth at the sampling scale.
type REDMarker struct {
	MinBytes int
	MaxBytes int
	// MaxP is the marking probability at MaxBytes (default 0.1).
	MaxP float64
	// Rng drives the probabilistic marking; required.
	Rng *rand.Rand
}

// Mark implements Marker.
func (r *REDMarker) Mark(queuedBytes int) bool {
	if queuedBytes < r.MinBytes {
		return false
	}
	if queuedBytes >= r.MaxBytes {
		return true
	}
	maxP := r.MaxP
	if maxP <= 0 {
		maxP = 0.1
	}
	p := maxP * float64(queuedBytes-r.MinBytes) / float64(r.MaxBytes-r.MinBytes)
	return r.Rng.Float64() < p
}

// SetMarker installs an AQM policy on the link; nil (the default) marks
// nothing.
func (l *Link) SetMarker(m Marker) { l.marker = m }
