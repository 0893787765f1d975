// Package paper declares each row of EXPERIMENTS.md that the repository
// regenerates, once: its ID, what it runs (a scenario.Registry name or a
// core construction), the claim its tests hold it to, and how figures
// reports it. Sections group the rows into figures' batch units, in run
// order.
//
// Everything that iterates the rows reads this one declaration: figures
// runs Sections, the tests check every row's claim at the reference seed
// and each declared sweep across seeds, and a test keeps EXPERIMENTS.md's
// IDs and the rows in step.
package paper

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"starvation/internal/network"
	"starvation/internal/scenario"
)

// A Section is one unit of figures' batch: a heading and the rows under
// it. Its ID is what -only, -list and the result cache name it by.
type Section struct {
	ID    string
	head  string // the heading's ID when it differs from ID
	title string
	rows  []row
}

// Run regenerates the section's rows in order, with figures' shorter run
// lengths under quick. A row that cannot serialize a data file panics
// (see reporter.save); a cancelled ctx truncates the runs, so the caller
// discards the artifact.
func (s Section) Run(ctx context.Context, quick bool) Artifact {
	r := &reporter{quick: quick}
	head := s.ID
	if s.head != "" {
		head = s.head
	}
	fmt.Fprintf(&r.summary, "\n## %s — %s\n\n", head, s.title)
	fmt.Fprintf(&r.console, "=== %s — %s\n", head, s.title)
	for _, rw := range s.rows {
		rw.report(ctx, r)
	}
	return Artifact{Summary: r.summary.String(), Console: r.console.String(), Files: r.files}
}

// Artifact is the outcome of one section: its summary fragment, its
// console transcript and its data files. figures caches it, so a restore
// gives back everything a run would print and write.
type Artifact struct {
	Summary string `json:"summary"`
	Console string `json:"console"`
	Files   []File `json:"files,omitempty"`
}

// File is one data file of a section, named relative to figures' -out.
type File struct {
	Name string `json:"name"`
	Data []byte `json:"data"`
}

// A row is one line of EXPERIMENTS.md. A scenario row names what it runs
// and shows the result; a core row builds and shows its construction. A
// row outside every section has a claim but no place in figures.
type row struct {
	id       string // EXPERIMENTS.md's ID
	scenario string // the scenario.Registry name it runs; "" for a core row
	claim    *claim // what the tests hold the scenario to; nil: no floor

	// figures runs a scenario row at the scenario's default (published)
	// length, and for quick under -quick.
	quick     time.Duration
	telemetry bool // figures runs it with the flight recorder on
	show      func(r *reporter, name string, res *scenario.Result)

	build func(ctx context.Context, r *reporter) // a core row's construction and rendering
}

// report runs the row for figures and renders it into r.
func (rw row) report(ctx context.Context, r *reporter) {
	if rw.build != nil {
		rw.build(ctx, r)
		return
	}
	o := scenario.Opts{Duration: r.dur(0, rw.quick), Ctx: ctx}
	if rw.telemetry {
		o.Telemetry = &network.TelemetryConfig{}
	}
	rw.show(r, rw.scenario, scenario.Registry[rw.scenario](o))
}

// A claim is what a row's tests hold its scenario to: checks, and the
// swept check when there is one, hold at the reference seed in a run of
// length dur.
type claim struct {
	dur    time.Duration // 0 is the scenario's default length
	checks []check
	// fn states what no check can: a disjunction of checks.
	fn    func(obs map[string]float64) error
	sweep sweep
}

// A sweep holds a check across sweepSeeds, in runs of length dur, in all
// but misses of them: 1 for a chaotic starvation demo, 0 for a worst-case
// bound. The zero sweep sweeps nothing.
type sweep struct {
	check  check
	dur    time.Duration
	misses int
}

// sweepSeeds are the realizations a sweep runs; seed 2 is the reference.
var sweepSeeds = []int64{2, 3, 4, 5, 6}

// A check is one declarative claim on a run's observables: key (divided
// by per when set) compared by op with bound, or with the observable than
// when set.
type check struct {
	key, per string
	op       string // "<", "<=", ">", ">="
	than     string
	bound    float64
}

// loses: the flow behind key gets less than the one behind than.
func loses(key, than string) check { return check{key: key, op: "<", than: than} }

func atLeast(key string, bound float64) check { return check{key: key, op: ">=", bound: bound} }

func atMost(key string, bound float64) check { return check{key: key, op: "<=", bound: bound} }

func above(key string, bound float64) check { return check{key: key, op: ">", bound: bound} }

// over divides the checked value by the observable per.
func (c check) over(per string) check {
	c.per = per
	return c
}

func (c check) String() string {
	lhs, rhs := c.key, strconv.FormatFloat(c.bound, 'g', -1, 64)
	if c.per != "" {
		lhs += "/" + c.per
	}
	if c.than != "" {
		rhs = c.than
	}
	return lhs + " " + c.op + " " + rhs
}

// eval reports the check's two sides on obs and whether it holds. An
// observable obs lacks is an error, so a misspelt key cannot pass.
func (c check) eval(obs map[string]float64) (lhs, rhs float64, ok bool, err error) {
	get := func(k string) float64 {
		v, found := obs[k]
		if !found && err == nil {
			err = fmt.Errorf("%s: no observable %q", c, k)
		}
		return v
	}
	lhs, rhs = get(c.key), c.bound
	if c.per != "" {
		lhs /= get(c.per)
	}
	if c.than != "" {
		rhs = get(c.than)
	}
	switch c.op {
	case "<":
		ok = lhs < rhs
	case "<=":
		ok = lhs <= rhs
	case ">":
		ok = lhs > rhs
	case ">=":
		ok = lhs >= rhs
	default:
		err = fmt.Errorf("%s: unknown operator", c)
	}
	return lhs, rhs, ok && err == nil, err
}

// reporter accumulates one section's output in memory. Each run of a
// section gets its own, so parallel sections never contend and produce
// the same bytes as sequential ones.
type reporter struct {
	quick   bool // -quick: rows pick their shorter runs
	summary strings.Builder
	console strings.Builder
	files   []File
}

// row writes a line to both the summary and the console.
func (r *reporter) row(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	fmt.Fprintf(&r.summary, "%s\n", line)
	fmt.Fprintf(&r.console, "%s\n", line)
}

// print writes console-only output (ASCII plots, tables).
func (r *reporter) print(args ...any) {
	fmt.Fprintln(&r.console, args...)
}

// save captures a data file. It panics on a serialization error rather
// than returning one: figures' runner turns the panic into a RunError and
// lets the rest of the batch produce its figures.
func (r *reporter) save(name string, write func(w io.Writer) error) {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		panic(fmt.Sprintf("figures: writing %s: %v", name, err))
	}
	r.files = append(r.files, File{Name: name, Data: buf.Bytes()})
	r.row("- data: `%s`", name)
}

// dur picks a run length: short under -quick, long otherwise.
func (r *reporter) dur(long, short time.Duration) time.Duration {
	if r.quick {
		return short
	}
	return long
}
