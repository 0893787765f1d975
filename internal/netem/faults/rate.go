package faults

import (
	"fmt"
	"time"

	"starvation/internal/netem"
	"starvation/internal/sim"
	"starvation/internal/units"
)

// restore is the sentinel rate meaning "the link's rate when the schedule
// was applied" — it lets flap patterns restore capacity without repeating
// the scenario's base rate.
const restore units.Rate = -1

// RateStep is one point of a piecewise rate schedule: at offset At (from
// the start of the schedule cycle) the link's drain rate becomes Rate. A
// Rate of 0 takes the link down; restore brings back the base rate.
type RateStep struct {
	At   time.Duration
	Rate units.Rate
}

// RateSchedule drives time-varying bottleneck capacity: the steps are
// applied in order, and when Repeat is positive the whole pattern recurs
// every Repeat. Schedules are deterministic — they draw no randomness —
// so they compose with seeded loss elements without perturbing them.
type RateSchedule struct {
	Steps  []RateStep
	Repeat time.Duration
}

// flap returns a schedule that takes the link down for downFor at every
// multiple of period (first outage at period, so flows get one clean
// period to start up).
func flap(period, downFor time.Duration) *RateSchedule {
	return &RateSchedule{
		Repeat: period,
		Steps: []RateStep{
			{At: period, Rate: 0},
			{At: period + downFor, Rate: restore},
		},
	}
}

// Validate reports the first problem with the schedule.
func (rs *RateSchedule) Validate() error {
	if rs == nil {
		return nil
	}
	if len(rs.Steps) == 0 {
		return fmt.Errorf("schedule has no steps")
	}
	if rs.Repeat < 0 {
		return fmt.Errorf("Repeat must be non-negative (got %v)", rs.Repeat)
	}
	prev := time.Duration(-1)
	for i, st := range rs.Steps {
		if st.At < 0 {
			return fmt.Errorf("step %d: At must be non-negative (got %v)", i, st.At)
		}
		if st.At <= prev {
			return fmt.Errorf("step %d: At %v not after previous step %v", i, st.At, prev)
		}
		if st.Rate < 0 && st.Rate != restore {
			return fmt.Errorf("step %d: negative rate %v", i, st.Rate)
		}
		prev = st.At
	}
	return nil
}

// Apply schedules the rate changes on s. restore steps resolve to the
// link's rate at Apply time. With Repeat set, each cycle schedules the
// next when it starts, so the event queue never holds more than one
// cycle's worth of schedule events.
func (rs *RateSchedule) Apply(s *sim.Simulator, l *netem.Link) {
	base := l.Rate()
	resolve := func(r units.Rate) units.Rate {
		if r == restore {
			return base
		}
		return r
	}
	var cycle func(offset time.Duration)
	cycle = func(offset time.Duration) {
		for _, st := range rs.Steps {
			r := resolve(st.Rate)
			s.At(offset+st.At, func() { l.SetRate(r) })
		}
		if rs.Repeat > 0 {
			next := offset + rs.Repeat
			s.At(next, func() { cycle(next) })
		}
	}
	cycle(0)
}
