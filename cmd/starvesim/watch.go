package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"starvation/internal/obs"
	"starvation/internal/units"
)

// watchFlow is one flow's live state, folded from the event stream alone
// (rate samples, episode boundaries) — the view needs no access to
// recorder internals mid-run.
type watchFlow struct {
	rateBps  float64
	starved  bool
	episodes int
}

// watchView is the single-writer state behind the -watch live display.
// The simulation goroutine folds events into it via Emit; the wall-clock
// render goroutine reads it under the same obs.Synchronized lock.
type watchView struct {
	// downstream receives every event after folding (the JSONL trace
	// writer, when -trace is also set), so it shares the watch lock and
	// the periodic flush is race-free.
	downstream obs.Probe

	flows    []watchFlow
	phase    string
	episodes int
	events   int64
	now      time.Duration
}

func (v *watchView) Emit(e obs.Event) {
	if v.downstream != nil {
		v.downstream.Emit(e)
	}
	v.events++
	if e.At > v.now {
		v.now = e.At
	}
	if e.Flow >= 0 {
		for int(e.Flow) >= len(v.flows) {
			v.flows = append(v.flows, watchFlow{})
		}
	}
	switch e.Type {
	case obs.EvRateSample:
		v.flows[e.Flow].rateBps = float64(e.Seq)
	case obs.EvStarveOnset:
		v.flows[e.Flow].starved = true
		v.flows[e.Flow].episodes++
		v.episodes++
	case obs.EvStarveEnd:
		v.flows[e.Flow].starved = false
	case obs.EvPhase:
		v.phase = obs.PhaseName(int(e.Seq))
	}
}

// render writes one status line to stderr. Must run under the watch lock.
func (v *watchView) render(final bool) {
	var b strings.Builder
	starved := 0
	for i := range v.flows {
		if v.flows[i].starved {
			starved++
		}
	}
	fmt.Fprintf(&b, "watch t=%-8v phase=%-7s flows=%d starved=%d episodes=%d events=%d",
		v.now.Round(time.Millisecond), v.phase, len(v.flows), starved, v.episodes, v.events)
	// Per-flow rates stay readable for small runs; population runs get
	// the summary counts above.
	if n := len(v.flows); n > 0 && n <= 8 {
		b.WriteString("  |")
		for i := range v.flows {
			mark := ""
			if v.flows[i].starved {
				mark = "*"
			}
			fmt.Fprintf(&b, " f%d %v%s", i, units.Rate(v.flows[i].rateBps), mark)
		}
	}
	if final {
		b.WriteString("  (done)")
	}
	fmt.Fprintln(os.Stderr, b.String())
}

// watcher owns the -watch goroutine: a wall-clock ticker that renders the
// live view and flushes the trace sink while the simulation emits through
// the shared obs.Synchronized probe.
type watcher struct {
	sync *obs.Synchronized
	view *watchView
	stop chan struct{}
	done chan struct{}
}

// startWatch begins rendering every interval. downstream (may be nil)
// receives the event stream under the watch lock; flush runs each tick
// under the same lock — the periodic trace flush, whose errors
// stay sticky in the writer and surface at finish.
func startWatch(every time.Duration, downstream obs.Probe, flush func() error) *watcher {
	view := &watchView{downstream: downstream}
	w := &watcher{
		sync: obs.NewSynchronized(view),
		view: view,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.sync.Do(func(obs.Probe) {
					view.render(false)
					_ = flush() // sticky; surfaced by obsSink.finish
				})
			}
		}
	}()
	return w
}

// halt stops the render loop and prints the final state line.
func (w *watcher) halt() {
	close(w.stop)
	<-w.done
	w.sync.Do(func(obs.Probe) { w.view.render(true) })
}
