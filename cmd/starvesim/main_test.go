package main

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"starvation/internal/scenario"
)

// cliEnv makes the test binary behave as the starvesim command: the tests
// below re-execute themselves with it set instead of building the CLI.
const cliEnv = "STARVESIM_TEST_AS_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(cliEnv) != "" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// starvesim runs the CLI with args and returns its exit status and output.
func starvesim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), cliEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("starvesim %v: %v", args, err)
	}
	return code, out.String(), errb.String()
}

// TestExitStatus pins the contract of the package comment: 0 on success,
// 1 on a runtime failure — an expired -deadline among them, whether it
// cuts one run or a batch short — 2 on a malformed configuration — a
// flag its mode does not read among them, and a bad population spec,
// with exactly the message the experiment service returns as HTTP 400.
func TestExitStatus(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "ev.jsonl")
	badSpec := scenario.PopulationSpec{Flows: "nosuchcca*2"}.Validate().Error()
	negSpec := scenario.PopulationSpec{Flows: "vegas*2", Duration: -5 * time.Second}.Validate().Error()
	geSpec := scenario.PopulationSpec{Flows: "allegro:ge=0.008/0.2"}.Validate().Error()
	// Degenerate numbers: a rate whose segment time overflows the clock
	// or rounds to zero, a NaN threshold or loss probability. Each is
	// refused before the run starts; the -deadline turns a regression
	// into exit 1, not a hang.
	degenerate := func(s scenario.PopulationSpec) string {
		if s.Flows == "" {
			s.Flows = "vegas;vegas"
		}
		return "starvesim: " + s.Validate().Error() + "\n"
	}
	short := []string{"-duration", "2s", "-deadline", "10s"}
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string // a whole line of standard error
	}{
		{[]string{"-list"}, 0, ""},
		{[]string{"-scenario", "nosuch"}, 1, "unknown scenario \"nosuch\"; use -list\n"},
		{[]string{"-flows", "nosuchcca*2"}, 2, "starvesim: " + badSpec + "\n"},
		{[]string{"-flows", "reno:delack=0/200ms"}, 2,
			"starvesim: flows: group \"reno:delack=0/200ms\": delack=0/200ms: count 0 below 1\n"},
		// Impairments are flow keys: the old -faults flag is gone, and a
		// malformed ge= is refused like any other key.
		{[]string{"-flows", "vegas*2", "-faults", "ge:0.008,0.2,0.5"}, 2, "flag provided but not defined: -faults\n"},
		{[]string{"-flows", "allegro:ge=0.008/0.2"}, 2, "starvesim: " + geSpec + "\n"},
		// A flow set the network refuses is refused before the trace opens.
		{[]string{"-flows", "vegas:path=5", "-trace", tracePath}, 2,
			"starvesim: population: network: flow 0: path link 5 out of range [0, 1)\n"},
		// Observers attach to one run: refused before the trace opens.
		{[]string{"-trace", tracePath, "-scenario", "all"}, 2, "starvesim: -trace does not apply to -scenario all\n"},
		// Refused before anything is dialled.
		{[]string{"-server", "localhost:1"}, 2, "starvesim: -server does not apply to -list\n"},
		// The flight recorder observes a local run: refused, not dropped.
		{[]string{"-server", "localhost:1", "-flows", "vegas*2", "-telemetry"}, 2,
			"starvesim: -telemetry does not apply to -server\n"},
		{[]string{"-scenario", "quickstart-vegas", "-sweep", "2", "-duration", "1s", "-telemetry"}, 2,
			"starvesim: -telemetry does not apply to -sweep\n"},
		{[]string{"-scenario", "quickstart-vegas", "-sweep", "-2"}, 2,
			"starvesim: -sweep -2: the seed count must be positive\n"},
		{[]string{"-scenario", "quickstart-vegas", "-topology", "fanin:4"}, 2,
			"starvesim: -topology does not apply to a single -scenario\n"},
		{[]string{"-scenario", "quickstart-vegas", "-jobs", "2"}, 2,
			"starvesim: -jobs does not apply to a single -scenario\n"},
		// A negative length or worker count is refused, not defaulted; a
		// population spec refuses its own with the daemon's 400 line.
		{[]string{"-scenario", "quickstart-vegas", "-duration", "-5s", "-deadline", "-1s"}, 2,
			"starvesim: -duration -5s: must not be negative (0 = the scenario's default)\n"},
		{[]string{"-scenario", "quickstart-vegas", "-duration", "1s", "-deadline", "-1s"}, 2,
			"starvesim: -deadline -1s: must not be negative (0 = no limit)\n"},
		{[]string{"-scenario", "all", "-jobs", "-4", "-duration", "1s"}, 2,
			"starvesim: -jobs -4: must not be negative (0 = GOMAXPROCS)\n"},
		{[]string{"-flows", "vegas*2", "-duration", "-5s"}, 2, "starvesim: " + negSpec + "\n"},
		{append([]string{"-flows", "vegas;vegas", "-rate", "NaN"}, short...), 2, degenerate(scenario.PopulationSpec{RateMbps: math.NaN()})},
		{append([]string{"-flows", "vegas;vegas", "-rate", "1e-300"}, short...), 2, degenerate(scenario.PopulationSpec{RateMbps: 1e-300})},
		{append([]string{"-flows", "vegas;vegas", "-rate", "+Inf"}, short...), 2, degenerate(scenario.PopulationSpec{RateMbps: math.Inf(1)})},
		{append([]string{"-flows", "vegas;vegas", "-rate", "1e300"}, short...), 2, degenerate(scenario.PopulationSpec{RateMbps: 1e300})},
		{append([]string{"-flows", "vegas;vegas", "-eps", "NaN"}, short...), 2, degenerate(scenario.PopulationSpec{Epsilon: math.NaN()})},
		{append([]string{"-flows", "vegas:loss=NaN;vegas"}, short...), 2, degenerate(scenario.PopulationSpec{Flows: "vegas:loss=NaN;vegas"})},
		// Everything after a stray word would be dropped: -duration here.
		{[]string{"-scenario", "quickstart-vegas", "stray", "-duration", "1s"}, 2,
			"starvesim: unexpected argument \"stray\"\n"},
		{[]string{"-flows", "vegas", "-duration", "600s", "-deadline", "1ms"}, 1,
			"starvesim: -deadline exceeded; partial outputs flushed\n"},
		{[]string{"-scenario", "all", "-duration", "60s", "-deadline", "1ms"}, 1,
			"starvesim: -deadline exceeded; completed scenarios printed\n"},
	} {
		if code, _, errOut := starvesim(t, tc.args...); code != tc.code || !strings.Contains("\n"+errOut, "\n"+tc.stderr) {
			t.Errorf("starvesim %v: exit %d, stderr %q; want %d, %q", tc.args, code, errOut, tc.code, tc.stderr)
		}
	}
	if _, err := os.Stat(tracePath); !os.IsNotExist(err) {
		t.Errorf("refused -trace run left a trace file behind (stat: %v)", err)
	}
}

// TestInterruptExitStatus pins exit 3: SIGINT mid-run halts the event
// loop, flushes the exporters and exits 3 — not 1, which an expired
// -deadline owns.
func TestInterruptExitStatus(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-flows", "vegas", "-duration", "3600s", "-watch", "10ms")
	cmd.Env = append(os.Environ(), cliEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(stderr)
	// The first live-view line means the run is under way with the
	// interrupt handler installed.
	if _, err := r.ReadString('\n'); err != nil {
		_ = cmd.Process.Kill()
		t.Fatalf("no live-view line before the run ended: %v", err)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(r)
	code := 0
	var exit *exec.ExitError
	if err := cmd.Wait(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	if want := "starvesim: interrupted; partial outputs flushed\n"; code != 3 || !strings.Contains(string(rest), want) {
		t.Errorf("interrupted run: exit %d, stderr tail %q; want 3, %q", code, rest, want)
	}
}

var tookLine = regexp.MustCompile(`(?m)^\(took .*\)\n`)

// TestScenarioOutputDeterministic checks the printed result is a function
// of the flags alone: identical across runs, and unmoved by the -trace and
// -metrics observers, once the wall-clock line is dropped.
func TestScenarioOutputDeterministic(t *testing.T) {
	run := func(extra ...string) string {
		t.Helper()
		args := append([]string{"-scenario", "quickstart-vegas", "-duration", "2s"}, extra...)
		code, out, errOut := starvesim(t, args...)
		if code != 0 {
			t.Fatalf("starvesim %v: exit %d, stderr %q", args, code, errOut)
		}
		if !tookLine.MatchString(out) {
			t.Fatalf("starvesim %v: no (took …) line in %q", args, out)
		}
		return tookLine.ReplaceAllString(out, "")
	}
	first := run()
	if again := run(); again != first {
		t.Errorf("two runs differ:\n%s\n---\n%s", first, again)
	}
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "ev.jsonl"), filepath.Join(dir, "met.txt")
	if observed := run("-trace", tracePath, "-metrics", metricsPath); observed != first {
		t.Errorf("-trace/-metrics moved the result:\n%s\n---\n%s", first, observed)
	}
	for _, p := range []string{tracePath, metricsPath} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written (stat: %v)", filepath.Base(p), err)
		}
	}
}

// metricsFile runs one quickstart-vegas -duration 2s run with -metrics
// written to dir/name, plus the extra flags, and returns the file.
func metricsFile(t *testing.T, dir, name string, extra ...string) []byte {
	t.Helper()
	path := filepath.Join(dir, name)
	args := append([]string{"-scenario", "quickstart-vegas", "-duration", "2s", "-metrics", path}, extra...)
	if code, _, errOut := starvesim(t, args...); code != 0 {
		t.Fatalf("starvesim %v: exit %d, stderr %q", args, code, errOut)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sameMetrics reports each line where two -metrics files differ.
func sameMetrics(t *testing.T, what string, a, b []byte) {
	t.Helper()
	if bytes.Equal(a, b) {
		return
	}
	al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			t.Errorf("%s moved the metrics file: line %d\n  %s\n  %s", what, i+1, al[i], bl[i])
		}
	}
	if len(al) != len(bl) {
		t.Errorf("%s moved the metrics file: %d lines vs %d", what, len(al), len(bl))
	}
}

// TestGuardLeavesMetricsUnchanged: the run guard reads element counters
// only, so -guard must not move a single exported counter — the sim
// event-loop gauges included — and the -metrics file must come out
// byte-identical with and without it.
func TestGuardLeavesMetricsUnchanged(t *testing.T) {
	dir := t.TempDir()
	sameMetrics(t, "-guard", metricsFile(t, dir, "plain.txt"), metricsFile(t, dir, "guarded.txt", "-guard"))
}

// TestTelemetryMetricsAreAFunctionOfTheRun: the flight recorder's part of
// the -metrics file describes the run, not the process that ran it, so two
// runs of the same scenario write the same bytes.
func TestTelemetryMetricsAreAFunctionOfTheRun(t *testing.T) {
	dir := t.TempDir()
	sameMetrics(t, "a second run",
		metricsFile(t, dir, "a.txt", "-telemetry"), metricsFile(t, dir, "b.txt", "-telemetry"))
}

// TestPopulationEpsilonAgreement is the regression test for a report that
// used two thresholds: -eps must reach the episode detector too, so the
// population line and the telemetry line of one run state the same ε.
func TestPopulationEpsilonAgreement(t *testing.T) {
	code, out, errOut := starvesim(t, "-flows", "vegas*3;reno*3", "-eps", "0.5", "-telemetry", "-duration", "5s")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	pop := regexp.MustCompile(`at eps=(\S+)\)`).FindStringSubmatch(out)
	tel := regexp.MustCompile(`(?m)^telemetry: .* eps (\S+) `).FindStringSubmatch(out)
	if pop == nil || tel == nil {
		t.Fatalf("population or telemetry line missing:\n%s", out)
	}
	if pop[1] != "0.5" || tel[1] != pop[1] {
		t.Errorf("population statistics use eps=%s, episode detector eps %s; want 0.5 for both", pop[1], tel[1])
	}
}
