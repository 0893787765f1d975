// Command bench is the repository's benchmark: five named workloads over
// the emulator, the sweep engine and the starved service, measured end to
// end with tracing off and, in a separate traced run, layer by layer.
//
//	go run -C bench . -seed 7                 every workload, untraced
//	go run -C bench . -seed 7 -trace 1        every workload, traced (per-layer ledger)
//	go run -C bench . -sets 2                 two untraced sets, compared
//	go run -C bench . --workload pop_500 --seed 7 --seconds 20 --trace 0
//
// With --workload the last line of standard output is the one-object JSON
// result BENCHMARK.json's contract asks for. README.md has the metric and
// workload definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "run one workload and end with the contract's JSON line (default: all five)")
	seed := flag.Int64("seed", 1, "every generated input derives from this")
	seconds := flag.Float64("seconds", 20, "how long each workload's measured phase runs")
	trace := flag.String("trace", "0", "1 = traced run: per-layer metrics and bench/out/trace.json; 0 = end-to-end metrics")
	sets := flag.Int("sets", 1, "untraced sets to run and compare (repeatability mode)")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != "0" && *trace != "1") || *seconds <= 0 || *sets < 1 {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-sets n]")
		os.Exit(2)
	}
	os.Exit(run(*workload, *seed, *seconds, *trace == "1", *sets))
}

func run(workload string, seed int64, seconds float64, traced bool, sets int) int {
	e, err := newEnv(benchSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer e.cleanup()

	if workload != "" {
		rep, err := e.runWorkload(workload, seed, seconds, traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		printReport(rep)
		line, err := json.Marshal(struct {
			Correct   bool      `json:"correct"`
			Attempted int       `json:"attempted"`
			Failed    int       `json:"failed"`
			Metrics   metricSet `json:"metrics"`
		}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(string(line))
		if !rep.Correct {
			return 1
		}
		return 0
	}

	all := make([][]*report, sets)
	ok := true
	for s := range all {
		order := append([]string(nil), workloadNames...)
		if s%2 == 1 { // alternate the order so drift does not favour a workload
			order = reversed(order)
		}
		for _, name := range order {
			rep, err := e.runWorkload(name, seed, seconds, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			printReport(rep)
			ok = ok && rep.Correct
			all[s] = append(all[s], rep)
		}
	}
	if sets > 1 && !compareSets(all) {
		fmt.Println("FAIL: two sets of the same code simulated different things (see above)")
		ok = false
	}
	if !ok {
		fmt.Println("FAIL: at least one output check failed (see above)")
		return 1
	}
	return 0
}

// printReport writes one workload's metrics by name with unit, sample
// count, median and quartiles, then its checks and its result digest.
func printReport(r *report) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("\n== %s  seed %d  %s\n", r.Workload, r.Seed, mode)
	fmt.Printf("%-42s %14s %-7s %6s %12s %12s %12s  %s\n", "metric", "value", "unit", "n", "q1", "median", "q3", "note")
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if len(m.Samples) == 0 {
			fmt.Printf("%-42s %14.9g %-7s %6s %12s %12s %12s  %s\n", n, m.Value, m.Unit, "1", "", "", "", m.Note)
			continue
		}
		fmt.Printf("%-42s %14.9g %-7s %6d %12.6g %12.6g %12.6g  %s\n", n, m.Value, m.Unit, len(m.Samples),
			quantile(m.Samples, 0.25), median(m.Samples), quantile(m.Samples, 0.75), m.Note)
	}
	fmt.Printf("%-42s %14.6g %-7s (%d failed of %d attempted)\n", "failed_ratio", r.failedRatio(), "ratio", r.Failed, r.Attempted)
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Printf("CHECK FAILED  %s: %s\n", c.Name, c.Info)
		}
	}
	fmt.Printf("checks %d/%d ok   result_digest %s\n", countOK(r.Checks), len(r.Checks), r.Digest)
}

func countOK(cs []check) int {
	n := 0
	for _, c := range cs {
		if c.OK {
			n++
		}
	}
	return n
}

// compareSets prints, per end-to-end metric × workload, whether the first
// two sets agree within the metric's bound, and whether the result digests
// and the exact counts (shown: events fired) are equal. Timings that
// disagree are the machine's doing and only reported; it returns false
// when digests or counts differ, which is the code's.
func compareSets(all [][]*report) bool {
	byName := func(set []*report) map[string]*report {
		m := map[string]*report{}
		for _, r := range set {
			m[r.Workload] = r
		}
		return m
	}
	a, b := byName(all[0]), byName(all[1])
	fmt.Printf("\n== repeatability: set 1 vs set 2\n")
	fmt.Printf("%-14s %-14s %14s %14s %8s %8s  %s\n", "workload", "metric", "set 1", "set 2", "diff", "bound", "")
	ok := true
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			x, y := a[w].Metrics[d.Name].Value, b[w].Metrics[d.Name].Value
			diff := (y - x) / x
			verdict := "agree"
			if diff > d.Bound || diff < -d.Bound {
				verdict = "DISAGREE"
			}
			fmt.Printf("%-14s %-14s %14.6g %14.6g %+7.1f%% %7.0f%%  %s\n", w, d.Name, x, y, 100*diff, 100*d.Bound, verdict)
		}
		verdict := map[bool]string{true: "equal", false: "DIFFERENT"}
		same := a[w].Digest == b[w].Digest
		fmt.Printf("%-14s %-14s %14s %14s %8s %8s  %s\n", w, "result_digest", a[w].Digest, b[w].Digest, "", "", verdict[same])
		// sim.events_*, netem.pkts_*, endpoint.* counts of the reference
		// operation, and runner.executed per batch.
		exact := a[w].Counts == b[w].Counts && a[w].Executed == b[w].Executed
		fmt.Printf("%-14s %-14s %14d %14d %8s %8s  %s\n", w, "exact counts", a[w].Counts.eventsFired, b[w].Counts.eventsFired, "", "", verdict[exact])
		ok = ok && same && exact
	}
	fmt.Println(strings.Repeat("-", 60))
	return ok
}
