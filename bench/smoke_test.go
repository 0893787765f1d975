package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// toySizes shrinks repetition counts and emulated lengths, never shapes:
// the same scenarios, flow mixes, request bodies and drivers run, for a
// second or less each.
var toySizes = sizes{
	pairsEmu: 500 * time.Millisecond, popEmu: 200 * time.Millisecond, popSeeds: 1, svcWarmup: 2,
	figuresOnly: "F1", ledgerOnly: "F1,F7", speedupOnly: "F7", setupReps: 1,
	ledgerEmu: 200 * time.Millisecond, ledgerSvcS: 0.05,
	ledgerN: func(n int) int { return n/400 + 1 },
}

// TestSmoke runs every workload untraced and one traced run (which drives
// every layer driver) at toy scale, so a refactor of a layer that breaks
// the harness or one of its output checks fails here first.
func TestSmoke(t *testing.T) {
	e, err := newEnv(toySizes)
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	run := func(name string, traced bool, defs []metricDef) {
		rep, err := e.runWorkload(name, 7, 0.1, traced)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range rep.Checks {
			if !c.OK {
				t.Errorf("%s: check %q failed: %s", name, c.Name, c.Info)
			}
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", name, rep.Correct, rep.Failed, rep.Attempted)
		}
		if rep.Digest == "" {
			t.Errorf("%s: no result digest", name)
		}
		if len(rep.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics reported, want %d", name, len(rep.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := rep.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s: reported=%v unit %q, want unit %q", name, d.Name, ok, m.Unit, d.Unit)
			}
			if !traced && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, d.Name, m.Value)
			}
		}
	}
	for _, name := range workloadNames {
		run(name, false, endToEnd)
	}
	run("pop_500", true, perLayer())
	if _, err := os.Stat(filepath.Join(e.scratch, "trace.json")); err != nil {
		t.Errorf("traced run left no trace file: %v", err)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the names, units, directions
// and bounds the program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
}
