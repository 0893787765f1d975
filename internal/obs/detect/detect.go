// Package detect turns windowed per-flow delivery rates into structured
// starvation episodes, online: while the run is still going, each flow's
// windowed share of fair share is compared against the same ε-threshold
// the population statistics use (metrics.DefaultStarvationEpsilon), and
// contiguous starved stretches become Episode records with onset,
// duration, severity, and the co-occurring fault state of the flow's
// impairment elements.
//
// The detector is fed by a timeseries.Sampler's OnWindow callback and is
// observation-only like everything in the obs layer: it schedules
// nothing, draws no randomness, and only appends to its episode log (an
// amortized allocation off the per-packet path). Episode boundaries are
// announced as first-class obs events (EvStarveOnset/EvStarveEnd) on an
// optional downstream probe, so a streaming JSONL trace carries the
// verdicts inline with the packet lifecycle that produced them.
package detect

import (
	"fmt"
	"time"

	"starvation/internal/metrics"
	"starvation/internal/obs"
	"starvation/internal/obs/timeseries"
	"starvation/internal/packet"
)

// Episode is one contiguous starvation stretch of one flow.
type Episode struct {
	// Flow identifies the starved flow; Name/Cohort are its labels.
	Flow   packet.FlowID `json:"flow"`
	Name   string        `json:"name,omitempty"`
	Cohort string        `json:"cohort,omitempty"`
	// Onset is the start of the first starved window of the streak; End
	// is the start of the first healthy window after it (or the horizon
	// when the episode was still open — see OpenAtEnd).
	Onset time.Duration `json:"onset_ns"`
	End   time.Duration `json:"end_ns"`
	// Windows counts the starved windows folded into the episode.
	Windows int `json:"windows"`
	// MinShare/MeanShare summarize the flow's windowed share of fair
	// share while starved (both < ε by construction).
	MinShare  float64 `json:"min_share"`
	MeanShare float64 `json:"mean_share"`
	// Severity is how far below the ε-threshold the flow fell at its
	// worst, 1 - MinShare/ε, in (0, 1]: 1 means zero delivery.
	Severity float64 `json:"severity"`
	// FaultAtOnset records whether the flow's fault gate was in its
	// bursty (Bad) state — or entered it — during the onset window;
	// FaultBursts counts loss bursts that began while the episode ran.
	FaultAtOnset bool  `json:"fault_at_onset,omitempty"`
	FaultBursts  int64 `json:"fault_bursts,omitempty"`
	// OpenAtEnd marks an episode truncated by the horizon rather than
	// closed by recovery.
	OpenAtEnd bool `json:"open_at_end,omitempty"`
}

// Duration returns the episode's extent.
func (ep *Episode) Duration() time.Duration { return ep.End - ep.Onset }

// Config parameterizes a Detector.
type Config struct {
	// FairShare is the per-flow fair share in bit/s (capacity / N);
	// required > 0 for the detector to act.
	FairShare float64
	// Epsilon is the starvation threshold as a fraction of FairShare
	// (<= 0 selects metrics.DefaultStarvationEpsilon).
	Epsilon float64
	// Probe, when non-nil, receives EvStarveOnset/EvStarveEnd events as
	// episodes open and close.
	Probe obs.Probe
}

// openAfter is the number of consecutive starved windows before an episode
// opens, closeAfter the number of healthy windows before it closes: a
// one-window hysteresis in each direction, so a single noisy window
// neither opens nor splits an episode.
const openAfter, closeAfter = 2, 2

type detFlow struct {
	name, cohort string

	starvedRun, healthyRun int
	open                   bool
	cur                    Episode
	// pend accumulates the not-yet-confirmed starved streak so the
	// episode, once opened, is backdated to the streak's first window.
	pend Episode
}

// Detector consumes closed windows and maintains per-flow episode state.
// Single-writer, like every probe-layer type.
type Detector struct {
	cfg      Config
	flows    []detFlow
	episodes []Episode
}

// New returns a detector; nflows pre-sizes the flow table.
func New(cfg Config, nflows int) *Detector {
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = metrics.DefaultStarvationEpsilon
	}
	return &Detector{cfg: cfg, flows: make([]detFlow, nflows)}
}

// Epsilon returns the active threshold.
func (d *Detector) Epsilon() float64 { return d.cfg.Epsilon }

// FairShare returns the configured per-flow fair share in bit/s.
func (d *Detector) FairShare() float64 { return d.cfg.FairShare }

// Label names a flow for its episode records. Call during setup.
func (d *Detector) Label(id packet.FlowID, name, cohort string) {
	d.grow(id)
	d.flows[id].name, d.flows[id].cohort = name, cohort
}

func (d *Detector) grow(id packet.FlowID) {
	for int(id) >= len(d.flows) {
		d.flows = append(d.flows, detFlow{})
	}
}

// Observe folds one closed window (a timeseries.OnWindow).
func (d *Detector) Observe(flow packet.FlowID, w *timeseries.Window, elapsed time.Duration) {
	if d.cfg.FairShare <= 0 || elapsed <= 0 {
		return
	}
	d.grow(flow)
	f := &d.flows[flow]
	share := float64(w.DeliveredBytes) * 8 / elapsed.Seconds() / d.cfg.FairShare
	if share < d.cfg.Epsilon {
		d.starvedWindow(flow, f, w, share, elapsed)
	} else {
		d.healthyWindow(flow, f, w)
	}
}

func (d *Detector) starvedWindow(flow packet.FlowID, f *detFlow, w *timeseries.Window, share float64, elapsed time.Duration) {
	f.healthyRun = 0
	if f.open {
		fold(&f.cur, w, share)
		return
	}
	if f.starvedRun == 0 {
		f.pend = Episode{
			Flow: flow, Name: f.name, Cohort: f.cohort,
			Onset: w.Start, MinShare: share,
			FaultAtOnset: w.FaultBad || w.FaultBursts > 0,
		}
		f.pend.MeanShare = 0
	}
	fold(&f.pend, w, share)
	f.starvedRun++
	if f.starvedRun >= openAfter {
		f.open = true
		f.cur = f.pend
		if d.cfg.Probe != nil {
			d.cfg.Probe.Emit(obs.Event{Type: obs.EvStarveOnset, At: f.cur.Onset,
				Flow: flow, Seq: int64(share * d.cfg.FairShare), Queue: -1})
		}
	}
}

func (d *Detector) healthyWindow(flow packet.FlowID, f *detFlow, w *timeseries.Window) {
	f.starvedRun = 0
	if !f.open {
		return
	}
	if f.healthyRun == 0 {
		// Tentative end: the start of this first healthy window.
		f.cur.End = w.Start
	}
	f.healthyRun++
	if f.healthyRun >= closeAfter {
		d.seal(flow, f, false)
	}
}

// fold accumulates one starved window into ep.
func fold(ep *Episode, w *timeseries.Window, share float64) {
	ep.Windows++
	if share < ep.MinShare {
		ep.MinShare = share
	}
	// MeanShare holds the running sum until seal divides it.
	ep.MeanShare += share
	ep.FaultBursts += w.FaultBursts
}

// seal finalizes a flow's open episode and appends it to the log.
func (d *Detector) seal(flow packet.FlowID, f *detFlow, openAtEnd bool) {
	ep := f.cur
	if ep.Windows > 0 {
		ep.MeanShare /= float64(ep.Windows)
	}
	ep.Severity = 1 - ep.MinShare/d.cfg.Epsilon
	ep.OpenAtEnd = openAtEnd
	d.episodes = append(d.episodes, ep)
	f.open = false
	f.healthyRun = 0
	if d.cfg.Probe != nil {
		d.cfg.Probe.Emit(obs.Event{Type: obs.EvStarveEnd, At: ep.End,
			Flow: flow, Seq: int64(ep.Duration()), Queue: -1})
	}
}

// Flush closes episodes still open at the horizon, marking them
// OpenAtEnd. Call after the sampler's own Flush so trailing partial
// windows were observed first.
func (d *Detector) Flush(horizon time.Duration) {
	for i := range d.flows {
		f := &d.flows[i]
		if !f.open {
			continue
		}
		f.cur.End = horizon
		d.seal(packet.FlowID(i), f, true)
	}
}

// Episodes returns the sealed episode log in onset order per flow (the
// order windows closed). The slice is owned by the detector.
func (d *Detector) Episodes() []Episode { return d.episodes }

// String renders one episode compactly for tables and logs.
func (ep *Episode) String() string {
	fault := ""
	if ep.FaultAtOnset {
		fault = " fault@onset"
	}
	open := ""
	if ep.OpenAtEnd {
		open = " (open)"
	}
	return fmt.Sprintf("%s [%v, %v) sev %.2f min-share %.3f%s%s",
		ep.Name, ep.Onset, ep.End, ep.Severity, ep.MinShare, fault, open)
}
