package paper

import (
	"context"
	"errors"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"starvation/internal/runner"
	"starvation/internal/scenario"
)

// The claims check the paper's qualitative statements — who wins, by
// roughly what factor, where the crossovers are — not the absolute Mbit/s
// of the authors' Mahimahi testbed.

// rows lists every declared row: the sections' in run order, then the
// unsectioned ones.
func rows() []row {
	var all []row
	for _, s := range Sections {
		all = append(all, s.rows...)
	}
	return append(all, unsectioned...)
}

// holds fails t for each check that does not hold on res.
func holds(t *testing.T, res *scenario.Result, checks ...check) {
	t.Helper()
	for _, c := range checks {
		lhs, rhs, ok, err := c.eval(res.Observables)
		if err != nil {
			t.Error(err)
		} else if !ok {
			t.Errorf("want %s, got %.4g vs %.4g", c, lhs, rhs)
		}
	}
}

// TestRowClaims holds every row that declares a claim to it at the
// reference seed: its checks and its swept check, its fn, and packet
// conservation in the run's ledger.
func TestRowClaims(t *testing.T) {
	for _, rw := range rows() {
		c := rw.claim
		if c == nil {
			continue
		}
		t.Run(rw.id, func(t *testing.T) {
			t.Parallel()
			res := scenario.Registry[rw.scenario](scenario.Opts{Duration: c.dur})
			t.Logf("\n%s", res)
			holds(t, res, c.checks...)
			if c.sweep.check.key != "" {
				holds(t, res, c.sweep.check)
			}
			if c.fn != nil {
				if err := c.fn(res.Observables); err != nil {
					t.Error(err)
				}
			}
			if err := res.Net.Ledger.Check(); err != nil {
				t.Errorf("ledger: %v", err)
			}
		})
	}
}

// TestSeedRobustness runs each declared sweep: its check must hold in all
// but the sweep's allowed misses of sweepSeeds. Every realization must
// also conserve packets, so the sweep doubles as the widest exercise of
// the ledger across CCAs and impairments. Skipped with -short.
func TestSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is slow")
	}
	for _, rw := range rows() {
		if rw.claim == nil || rw.claim.sweep.check.key == "" {
			continue
		}
		sw := rw.claim.sweep
		t.Run(rw.id, func(t *testing.T) {
			t.Parallel()
			results, err := scenario.SeedSweep(context.Background(), rw.scenario, sweepSeeds, 1, scenario.Opts{Duration: sw.dur})
			if err != nil {
				t.Fatal(err)
			}
			misses := 0
			for i, res := range results {
				seed := sweepSeeds[i]
				lhs, rhs, ok, err := sw.check.eval(res.Observables)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					misses++
					t.Logf("seed %d: want %s, got %.4g vs %.4g", seed, sw.check, lhs, rhs)
				}
				if err := res.Net.Ledger.Check(); err != nil {
					t.Errorf("seed %d: ledger: %v", seed, err)
				}
			}
			if misses > sw.misses {
				t.Errorf("%s failed in %d of %d seeds, want at most %d", sw.check, misses, len(sweepSeeds), sw.misses)
			}
		})
	}
}

// TestCheckStrictness pins each kind of check at its boundary: floors
// and ceilings hold at equality, a loser and a strict floor do not.
func TestCheckStrictness(t *testing.T) {
	obs := map[string]float64{"u": 0.5, "a": 3, "b": 3, "n": 0, "r": 2.5, "s": 2}
	for _, tc := range []struct {
		c    check
		text string
		ok   bool
	}{
		{atMost("u", 0.5), "u <= 0.5", true},
		{atMost("u", 0.49), "u <= 0.49", false},
		{atLeast("a", 3), "a >= 3", true},
		{loses("a", "b"), "a < b", false},
		{above("n", 0), "n > 0", false},
		{atMost("r", 1.25).over("s"), "r/s <= 1.25", true},
		{atLeast("r", 1.26).over("s"), "r/s >= 1.26", false},
	} {
		if _, _, ok, err := tc.c.eval(obs); err != nil || ok != tc.ok || tc.c.String() != tc.text {
			t.Errorf("%s: holds = %v, %v; want %q to hold: %v", tc.c, ok, err, tc.text, tc.ok)
		}
	}
	if _, _, ok, err := loses("a", "missing").eval(obs); ok || err == nil {
		t.Errorf("a check on a missing observable holds (%v) or passes without error", ok)
	}
}

// notRun lists EXPERIMENTS.md's rows that no declared row runs.
var notRun = []string{
	"X-CCAC",   // retired: the ccac package it ran is deleted
	"X-T1",     // Theorem 1 end to end: core's tests
	"X-T1-gen", // Theorem 1 for FAST and LEDBAT: core's tests
	"P6.5",     // the 500-flow smoke: starvesim -scenario pop-mixed-500 and the benchmark's pop_500
}

// TestExperimentsIDs keeps EXPERIMENTS.md and the rows in step: every ID
// in its tables names a row or sits on notRun, every row appears there,
// and no ID is declared twice.
func TestExperimentsIDs(t *testing.T) {
	data, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var doc []string
	inTable := false
	for _, line := range strings.Split(string(data), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			inTable = false
			continue
		}
		switch first := strings.TrimSpace(cells[1]); {
		case first == "ID":
			inTable = true
		case inTable && !strings.HasPrefix(first, "-"):
			doc = append(doc, first)
		}
	}
	declared := map[string]bool{}
	for _, rw := range rows() {
		if declared[rw.id] {
			t.Errorf("row %s declared twice", rw.id)
		}
		declared[rw.id] = true
		if !slices.Contains(doc, rw.id) {
			t.Errorf("row %s is not in EXPERIMENTS.md", rw.id)
		}
		if rw.scenario != "" && scenario.Registry[rw.scenario] == nil {
			t.Errorf("row %s runs unknown scenario %q", rw.id, rw.scenario)
		}
	}
	for _, id := range doc {
		if declared[id] == slices.Contains(notRun, id) {
			t.Errorf("EXPERIMENTS.md's %s must name a row or be on notRun, not both or neither", id)
		}
	}
	for _, id := range notRun {
		if !slices.Contains(doc, id) {
			t.Errorf("notRun lists %s, which EXPERIMENTS.md does not", id)
		}
	}
}

// TestSectionIDs pins figures' section IDs and order: each is a cache key
// and an -only name, so renaming one strands every cached entry of it.
func TestSectionIDs(t *testing.T) {
	var ids []string
	for _, s := range Sections {
		ids = append(ids, s.ID)
	}
	want := "F1 F3 F4 F5 F7 T5 T6.3 X-EPISODES X-A1-ablation X-ECN X-T2 X-T3 X-POP"
	if got := strings.Join(ids, " "); got != want {
		t.Errorf("sections = %s, want %s", got, want)
	}
}

// TestReporterSaveRecoverable checks a failed save surfaces as a panic,
// which figures' runner records as the section's failure, rather than
// killing the process.
func TestReporterSaveRecoverable(t *testing.T) {
	job := runner.Job{ID: "save-fail", Run: func(context.Context) ([]byte, error) {
		(&reporter{}).save("x.csv", func(io.Writer) error { return errors.New("serialization broke") })
		return nil, nil
	}}
	e := (&runner.Pool{Jobs: 1}).Run(context.Background(), []runner.Job{job})[0].Err
	if e == nil || e.Kind != "panic" || !strings.Contains(e.Msg, "serialization broke") {
		t.Fatalf("failed save: got %+v, want captured panic", e)
	}
}
