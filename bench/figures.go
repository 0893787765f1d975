package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// figuresCLI drives cmd/figures as a black box: a built binary, argv in,
// stdout/stderr and an output tree out.
type figuresCLI struct {
	bin string
	// scratch is where output trees go; every run gets a fresh one.
	scratch string
	n       int
}

// buildFigures compiles cmd/figures from the checkout into outDir and
// returns the binary and the build's wall time (proc.build_s — mostly a
// measurement of Go's build cache, which is why it is not part of setup_s).
func buildFigures(repoRoot, outDir string) (string, time.Duration, error) {
	bin := filepath.Join(outDir, "figures")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/figures")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/figures: %v\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// figuresRun is one invocation's observable outcome.
type figuresRun struct {
	wall      time.Duration
	sections  map[string]time.Duration // from the "[k/n] <id>: done (…)" lines
	simulated int
	cached    int
	failed    int
	tree      string // hash of the output tree
	maxRSSKB  int64
	err       error
}

var (
	doneLine    = regexp.MustCompile(`^\[\d+/\d+\] ([^:]+): done \(([^)]+)\)`)
	summaryLine = regexp.MustCompile(`^(\d+) simulated, (\d+) cached, (\d+) failed`)
)

func (f *figuresCLI) freshOut() string {
	f.n++
	return filepath.Join(f.scratch, fmt.Sprintf("figures-%d", f.n))
}

// run invokes the CLI and waits for it. SOURCE_DATE_EPOCH pins the one
// timestamp the tool writes, so cold and warm trees can be compared whole.
func (f *figuresCLI) run(out string, args ...string) *figuresRun {
	r := &figuresRun{sections: map[string]time.Duration{}}
	cmd := exec.Command(f.bin, append(args, "-out", out)...)
	cmd.Env = append(os.Environ(), "SOURCE_DATE_EPOCH=0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	r.wall = time.Since(t0)
	if err != nil {
		r.err = fmt.Errorf("figures %v: %v: %s", args, err, lastLine(stderr.String()))
		return r
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.maxRSSKB = ru.Maxrss
	}
	for _, line := range strings.Split(stderr.String(), "\n") {
		if m := doneLine.FindStringSubmatch(line); m != nil {
			if d, err := time.ParseDuration(m[2]); err == nil {
				r.sections[m[1]] = d
			}
		}
	}
	if m := summaryLine.FindStringSubmatch(lastLine(stdout.String())); m != nil {
		r.simulated, _ = strconv.Atoi(m[1])
		r.cached, _ = strconv.Atoi(m[2])
		r.failed, _ = strconv.Atoi(m[3])
	} else {
		r.err = fmt.Errorf("figures %v: no summary line in output", args)
		return r
	}
	r.tree, r.err = hashTree(out)
	return r
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// hashTree hashes the data files of a figures output tree: everything at
// the top level except the manifest (which records done-vs-cached) and the
// dot-directories (cache, chaos log). summary.md's "generated" line is
// dropped as well, in case the tool ever stops honouring SOURCE_DATE_EPOCH.
func hashTree(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || e.Name() == "manifest.json" {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return "", err
		}
		if n == "summary.md" {
			var keep [][]byte
			for _, line := range bytes.Split(data, []byte("\n")) {
				if !bytes.HasPrefix(line, []byte("generated ")) {
					keep = append(keep, line)
				}
			}
			data = bytes.Join(keep, []byte("\n"))
		}
		fmt.Fprintf(h, "%s %d\n", n, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// figuresWL is the figures_quick workload: `figures -quick -jobs 1` into a
// fresh directory, cold. The tool takes no seed — its inputs are the
// paper's fixed configurations — so -seed has nothing to vary here.
type figuresWL struct {
	cli  *figuresCLI
	args []string // "-quick" plus an optional "-only"
	out  string
}

func newFiguresWL(cli *figuresCLI, only string) *figuresWL {
	w := &figuresWL{cli: cli, args: []string{"-quick", "-jobs", "1"}}
	if only != "" {
		w.args = append(w.args, "-only", only)
	}
	return w
}

// setup makes the fresh output directory and starts the binary once
// (-list only reads the manifest) so the first timed run does not also pay
// for paging the executable in.
func (w *figuresWL) setup() error {
	w.out = w.cli.freshOut()
	cmd := exec.Command(w.cli.bin, "-list", "-out", w.out)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("figures -list: %v: %s", err, out)
	}
	return os.MkdirAll(w.out, 0o755)
}

// measure runs cold invocations until seconds have elapsed (one, at the
// sizes in BENCHMARK.json), then reruns the last tree warm: it must
// simulate nothing and produce the same tree.
func (w *figuresWL) measure(seconds float64, tr *tracer) *measured {
	m := newMeasured()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var last *figuresRun
	var sections float64
	for n := 0; n == 0 || fits(deadline, last.wall); n++ {
		if n > 0 {
			w.out = w.cli.freshOut()
		}
		sp := tr.begin(fmt.Sprintf("cold-%d", n), "figures.cold", 0)
		r := w.cli.run(w.out, w.args...)
		tr.end(sp)
		m.attempted++
		if r.err != nil || r.failed > 0 || r.cached > 0 || r.simulated == 0 {
			m.failed++
			m.check(fmt.Sprintf("cold run %d", n), false, fmt.Sprint(r.err, " ", r.simulated, " simulated ", r.cached, " cached ", r.failed, " failed"))
			return m
		}
		last = r
		sections = float64(r.simulated)
		m.batchMS = append(m.batchMS, millis(r.wall))
		m.rates = append(m.rates, sections/r.wall.Seconds())
		m.untracedWall += r.wall
		if kb := float64(r.maxRSSKB); kb/1024 > m.extra.val("proc.peak_rss_mb") {
			m.extra.put("proc.peak_rss_mb", "MB", kb/1024)
		}
	}
	// The tool is not instrumented from inside, so a traced cold run is an
	// untraced one with a span around it.
	m.tracedWall, m.pairedWall = m.untracedWall, m.untracedWall
	m.refWall = last.wall
	m.batchP50 = quietLow(m.batchMS)
	m.jobsPerS = sections / (m.batchP50 / 1e3)
	m.digest = last.tree

	sp := tr.begin("warm", "figures.warm", 0)
	warm := w.cli.run(w.out, w.args...)
	tr.end(sp)
	m.check("warm rerun simulates nothing", warm.err == nil && warm.simulated == 0 && warm.cached == int(sections),
		fmt.Sprint(warm.err, " ", warm.simulated, " simulated ", warm.cached, " cached"))
	m.check("cold tree == warm tree", warm.tree == last.tree, warm.tree+" vs "+last.tree)
	return m
}

func (w *figuresWL) close() {}

// figuresLedger is the traced run's fixed look at the CLI. The two
// sections that bound a -quick batch (F3, T5) run at -jobs 1 and are rerun
// warm; two small sections (speedupOnly) run at -jobs 1 and at -jobs nproc,
// which sizes what the section-level parallelism of runner.Pool buys
// without paying for the big sections twice.
func figuresLedger(cli *figuresCLI, only, speedupOnly string, ms metricSet, tr *tracer) []check {
	out := cli.freshOut()
	sp := tr.begin("figures-ledger", "figures.sections", 0)
	cold := cli.run(out, "-quick", "-jobs", "1", "-only", only)
	tr.end(sp)
	if cold.err != nil {
		return []check{{Name: "figures ledger cold run", OK: false, Info: cold.err.Error()}}
	}
	for i, id := range strings.SplitN(only, ",", 2) {
		ms.putNote([]string{"figures.F3_s", "figures.T5_s"}[i], "s", cold.sections[id].Seconds(), "ledger "+id)
	}
	sp = tr.begin("figures-ledger", "figures.warm", 0)
	warm := cli.run(out, "-quick", "-jobs", "1", "-only", only)
	tr.end(sp)
	ms.putNote("figures.warm_ms", "ms", millis(warm.wall), "ledger "+only)

	sp = tr.begin("figures-ledger", "figures.jobs_speedup", 0)
	one := cli.run(cli.freshOut(), "-quick", "-jobs", "1", "-only", speedupOnly)
	many := cli.run(cli.freshOut(), "-quick", "-jobs", strconv.Itoa(runtime.GOMAXPROCS(0)), "-only", speedupOnly)
	tr.end(sp)
	speedup := 0.0
	if one.err == nil && many.err == nil {
		speedup = one.wall.Seconds() / many.wall.Seconds()
	}
	ms.putNote("figures.jobs_speedup", "ratio", speedup, "ledger "+speedupOnly)
	return []check{
		{Name: "figures ledger warm rerun simulates nothing", OK: warm.err == nil && warm.simulated == 0,
			Info: fmt.Sprint(warm.err, " ", warm.simulated, " simulated")},
		{Name: "figures ledger cold tree == warm tree", OK: warm.tree == cold.tree, Info: warm.tree + " vs " + cold.tree},
		{Name: "figures ledger -jobs nproc tree == -jobs 1 tree", OK: speedup > 0 && one.tree == many.tree, Info: many.tree + " vs " + one.tree},
	}
}
