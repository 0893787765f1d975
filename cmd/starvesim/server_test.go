package main

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"starvation/internal/scenario"
	"starvation/internal/service"
)

// TestServerClient runs the -server client against an in-process daemon:
// its stdout is byte-identical to the local run of the same spec, a spec
// the daemon rejects exits 2 with the local message, and a flag only a
// local run reads is refused before anything is submitted.
func TestServerClient(t *testing.T) {
	s, err := service.New(service.Config{DataDir: t.TempDir(), Workers: 1, DrainGrace: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)

	spec := []string{"-flows", "vegas*2;reno*2", "-duration", "2s"}
	code, local, errOut := starvesim(t, spec...)
	if code != 0 {
		t.Fatalf("local run: exit %d, stderr %q", code, errOut)
	}
	code, remote, errOut := starvesim(t, append([]string{"-server", ts.URL}, spec...)...)
	if code != 0 {
		t.Fatalf("-server run: exit %d, stderr %q", code, errOut)
	}
	if remote != local {
		t.Errorf("-server stdout differs from the local run:\n%s\n---\n%s", remote, local)
	}
	if !strings.Contains(errOut, "batch-done") {
		t.Errorf("-server stderr carries no batch-done event:\n%s", errOut)
	}

	badSpec := scenario.PopulationSpec{Flows: "nosuchcca*2"}.Validate().Error()
	negSpec := scenario.PopulationSpec{Flows: "vegas*2", Duration: -5 * time.Second}.Validate().Error()
	dipSpec := scenario.PopulationSpec{Flows: "copa:jitter=dip:1ms/10s"}.Validate().Error()
	type refusal struct {
		args   []string
		stderr string // all of standard error
	}
	refusals := []refusal{
		{[]string{"-server", ts.URL, "-flows", "nosuchcca*2"}, "starvesim: " + badSpec + "\n"},
		// The daemon refuses a negative duration_sec as a local run refuses -duration.
		{[]string{"-server", ts.URL, "-flows", "vegas*2", "-duration", "-5s"}, "starvesim: " + negSpec + "\n"},
		{[]string{"-server", ts.URL, "-flows", "copa:jitter=dip:1ms/10s"}, "starvesim: " + dipSpec + "\n"},
	}
	// A malformed ge=, a NaN loss= and a rate no link can serialize at
	// are refused with the line a local run exits 2 with. A NaN or
	// infinite number has no JSON form, so the client refuses it with
	// that line before it reaches the daemon.
	for _, args := range [][]string{
		{"-flows", "allegro:ge=0.008/1.5/0.5;allegro"},
		{"-flows", "vegas:loss=NaN"},
		{"-flows", "vegas;vegas", "-rate", "1e300"},
		{"-flows", "vegas;vegas", "-rate", "NaN"},
		{"-flows", "vegas;vegas", "-eps", "NaN"},
	} {
		code, _, local := starvesim(t, args...)
		if code != 2 || !strings.HasPrefix(local, "starvesim: ") {
			t.Fatalf("local starvesim %v: exit %d, stderr %q", args, code, local)
		}
		refusals = append(refusals, refusal{append([]string{"-server", ts.URL}, args...), local})
	}
	for _, tc := range refusals {
		if code, _, errOut := starvesim(t, tc.args...); code != 2 || errOut != tc.stderr {
			t.Errorf("starvesim %v: exit %d, stderr %q; want 2, %q", tc.args, code, errOut, tc.stderr)
		}
	}
}
