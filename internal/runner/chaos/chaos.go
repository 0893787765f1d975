// Package chaos injects deterministic, seeded faults into the experiment
// orchestration layer, the way internal/netem/faults injects them into
// the network: every failure mode the runner is supposed to survive —
// erroring, panicking, hanging, and slow job bodies; corrupted cache
// artifacts; truncated manifests — gets a fault point that tests and the
// -chaos CLI flag can trigger reproducibly.
//
// Every decision is a pure function of (seed, job ID, attempt), so a
// chaos run is as deterministic as the simulations it torments: the same
// spec and seed injects the same faults into the same jobs regardless of
// worker count or scheduling. Injected body faults fire *instead of* the
// job body, so a retried attempt that draws no fault produces exactly
// the artifact a fault-free run would — which is what makes the
// byte-identical chaos parity invariant testable.
package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"starvation/internal/obs"
	"starvation/internal/runner"
)

// Default knobs, applied when the spec omits the clause.
const (
	// defaultHangFor bounds an injected hang: the attempt blocks this
	// long (or until its context dies), then fails. Supervision, not
	// wall-clock waste.
	defaultHangFor = 2 * time.Second
	// defaultMaxFaultsPerJob caps injected body faults per job so a
	// retried job always converges: with a retry budget of at least
	// MaxFaultsPerJob+1 attempts, chaos can never fail a batch.
	defaultMaxFaultsPerJob = 2
	// defaultAttempts is the retry budget a chaos run implies when the
	// caller doesn't set one (defaultMaxFaultsPerJob+1: always enough).
	defaultAttempts = defaultMaxFaultsPerJob + 1
	// retryBase is the first-retry backoff under chaos. Injected
	// failures are expected, so a run backs off in milliseconds, not the
	// runner's production default.
	retryBase = 2 * time.Millisecond
)

// Spec is a parsed chaos specification: per-attempt fault probabilities
// plus batch-level artifact sabotage. The zero Spec injects nothing.
type Spec struct {
	// Seed drives every injection decision.
	Seed int64
	// FailP is the per-attempt probability of an injected body error.
	FailP float64
	// PanicP is the per-attempt probability of an injected panic.
	PanicP float64
	// HangP is the per-attempt probability of an injected hang: the
	// attempt blocks for HangFor (or until its context dies), then fails.
	HangP float64
	// HangFor bounds an injected hang (0 selects defaultHangFor).
	HangFor time.Duration
	// SlowP is the per-attempt probability of an injected SlowBy delay
	// before the body runs (the body still succeeds — a slow worker, not
	// a dead one).
	SlowP float64
	// SlowBy is the injected delay (0 disables slow faults).
	SlowBy time.Duration
	// CorruptN is how many cache entries Injector.CorruptCache mangles.
	CorruptN int
	// CorruptMode is "bitflip" (default) or "truncate".
	CorruptMode string
	// TruncateManifest, when true, cuts the manifest file at a seeded
	// offset before the batch loads it.
	TruncateManifest bool
	// MaxFaultsPerJob caps injected body faults per job (0 selects
	// defaultMaxFaultsPerJob; negative means unlimited — a batch may
	// then fail terminally, which some tests want).
	MaxFaultsPerJob int
	// Attempts is the retry budget the spec suggests for the pool
	// (0 selects defaultAttempts).
	Attempts int
}

// Parse reads the -chaos CLI grammar: semicolon-separated clauses,
//
//	seed:N                — injection seed (default 1)
//	fail:P                — injected body-error probability per attempt
//	panic:P               — injected panic probability per attempt
//	hang:P[,dur]          — injected hang probability (blocks dur, then fails; default 2s)
//	slow:P,dur            — injected pre-body delay probability
//	corrupt:N[,mode]      — corrupt N cache entries before the batch (bitflip|truncate)
//	truncate-manifest:1   — cut the manifest at a seeded offset before loading
//	maxfail:N             — cap injected body faults per job (default 2; -1 unbounded)
//	attempts:N            — retry budget the run should use (default maxfail+1)
//
// Example: "seed:7;fail:0.3;panic:0.1;hang:0.1,500ms;slow:0.2,50ms;corrupt:2".
func Parse(spec string) (Spec, error) {
	s := Spec{Seed: 1}
	if strings.TrimSpace(spec) == "" {
		return s, fmt.Errorf("chaos: empty spec")
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, args, ok := strings.Cut(clause, ":")
		if !ok {
			return s, fmt.Errorf("chaos: clause %q: want name:value", clause)
		}
		parts := strings.Split(args, ",")
		arg := func(i int) string { return strings.TrimSpace(parts[i]) }
		prob := func() (float64, error) {
			p, err := strconv.ParseFloat(arg(0), 64)
			if err != nil || p < 0 || p > 1 {
				return 0, fmt.Errorf("chaos: clause %q: probability must be in [0,1]", clause)
			}
			return p, nil
		}
		var err error
		switch strings.TrimSpace(name) {
		case "seed":
			s.Seed, err = strconv.ParseInt(arg(0), 10, 64)
			if err != nil {
				return s, fmt.Errorf("chaos: clause %q: bad seed", clause)
			}
		case "fail":
			if s.FailP, err = prob(); err != nil {
				return s, err
			}
		case "panic":
			if s.PanicP, err = prob(); err != nil {
				return s, err
			}
		case "hang":
			if s.HangP, err = prob(); err != nil {
				return s, err
			}
			if len(parts) > 1 {
				if s.HangFor, err = time.ParseDuration(arg(1)); err != nil || s.HangFor <= 0 {
					return s, fmt.Errorf("chaos: clause %q: bad hang duration", clause)
				}
			}
		case "slow":
			if s.SlowP, err = prob(); err != nil {
				return s, err
			}
			if len(parts) < 2 {
				return s, fmt.Errorf("chaos: clause %q: slow needs a duration (slow:P,dur)", clause)
			}
			if s.SlowBy, err = time.ParseDuration(arg(1)); err != nil || s.SlowBy <= 0 {
				return s, fmt.Errorf("chaos: clause %q: bad slow duration", clause)
			}
		case "corrupt":
			if s.CorruptN, err = strconv.Atoi(arg(0)); err != nil || s.CorruptN < 0 {
				return s, fmt.Errorf("chaos: clause %q: bad corruption count", clause)
			}
			if len(parts) > 1 {
				mode := arg(1)
				if mode != "bitflip" && mode != "truncate" {
					return s, fmt.Errorf("chaos: clause %q: mode must be bitflip or truncate", clause)
				}
				s.CorruptMode = mode
			}
		case "truncate-manifest":
			n, err := strconv.Atoi(arg(0))
			if err != nil || n < 0 {
				return s, fmt.Errorf("chaos: clause %q: want truncate-manifest:0|1", clause)
			}
			s.TruncateManifest = n > 0
		case "maxfail":
			if s.MaxFaultsPerJob, err = strconv.Atoi(arg(0)); err != nil {
				return s, fmt.Errorf("chaos: clause %q: bad maxfail", clause)
			}
		case "attempts":
			if s.Attempts, err = strconv.Atoi(arg(0)); err != nil || s.Attempts < 1 {
				return s, fmt.Errorf("chaos: clause %q: attempts must be >= 1", clause)
			}
		default:
			return s, fmt.Errorf("chaos: unknown clause %q", name)
		}
	}
	if s.MaxFaultsPerJob >= 0 {
		faultCap := s.MaxFaultsPerJob
		if faultCap == 0 {
			faultCap = defaultMaxFaultsPerJob
		}
		if s.Attempts != 0 && s.Attempts <= faultCap {
			return s, fmt.Errorf("chaos: attempts:%d cannot outlast maxfail:%d injected faults per job; raise attempts or lower maxfail", s.Attempts, faultCap)
		}
	}
	return s, nil
}

func (s Spec) hangFor() time.Duration {
	if s.HangFor > 0 {
		return s.HangFor
	}
	return defaultHangFor
}

func (s Spec) maxFaults() int {
	if s.MaxFaultsPerJob != 0 {
		return s.MaxFaultsPerJob
	}
	return defaultMaxFaultsPerJob
}

// Retry returns the retry policy a run under the spec uses: explicit
// attempts if set, else one more than the per-job fault cap so every
// chaos run converges; the spec's seed for the backoff jitter; and a
// base of retryBase.
func (s Spec) Retry() runner.RetryPolicy {
	attempts := defaultAttempts
	switch {
	case s.Attempts > 0:
		attempts = s.Attempts
	case s.maxFaults() > 0:
		attempts = s.maxFaults() + 1
	}
	return runner.RetryPolicy{MaxAttempts: attempts, Seed: s.Seed, Base: retryBase}
}

// event is one injected fault, recorded for the chaos log.
type event struct {
	// Kind is "error", "panic", "hang", "slow", "corrupt", or
	// "truncate-manifest".
	Kind string `json:"kind"`
	// Job and Attempt locate body faults (empty/0 for artifact faults).
	Job     string `json:"job,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	// Target is the mangled file for corrupt/truncate-manifest faults.
	Target string `json:"target,omitempty"`
	// Detail describes the fault ("bitflip @1234", "hung 500ms", …).
	Detail string `json:"detail,omitempty"`
}

// Injector applies a Spec: it wraps job bodies with seeded fault points
// and mangles on-disk artifacts, recording every injection.
type Injector struct {
	Spec Spec

	mu       sync.Mutex
	events   []event
	attempts map[string]int // body invocations per job (attempt counter)
	faults   map[string]int // injected body faults per job (the cap)
}

// New returns an Injector for the spec.
func New(spec Spec) *Injector {
	return &Injector{Spec: spec, attempts: map[string]int{}, faults: map[string]int{}}
}

func (in *Injector) record(ev event) {
	in.mu.Lock()
	in.events = append(in.events, ev)
	in.mu.Unlock()
}

// counts returns the number of injections per fault kind.
func (in *Injector) counts() map[string]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	counts := map[string]int{}
	for _, ev := range in.events {
		counts[ev.Kind]++
	}
	return counts
}

// Wrap returns jobs with every body wrapped in the injector's fault
// points. The wrapped body decides, per (seed, job, attempt), whether to
// fail instead of running — so a clean retry reproduces the fault-free
// artifact bytes exactly.
func (in *Injector) Wrap(jobs []runner.Job) []runner.Job {
	out := make([]runner.Job, len(jobs))
	for i, job := range jobs {
		out[i] = in.wrapOne(job)
	}
	return out
}

func (in *Injector) wrapOne(job runner.Job) runner.Job {
	body := job.Run
	id := job.ID
	job.Run = func(ctx context.Context) ([]byte, error) {
		in.mu.Lock()
		in.attempts[id]++
		attempt := in.attempts[id]
		capped := in.Spec.maxFaults() >= 0 && in.faults[id] >= in.Spec.maxFaults()
		in.mu.Unlock()

		if !capped {
			if kind := in.decide(id, attempt); kind != "" {
				in.mu.Lock()
				in.faults[id]++
				in.mu.Unlock()
				switch kind {
				case "panic":
					in.record(event{Kind: "panic", Job: id, Attempt: attempt})
					panic(fmt.Sprintf("chaos: injected panic (job %s attempt %d)", id, attempt))
				case "hang":
					d := in.Spec.hangFor()
					in.record(event{Kind: "hang", Job: id, Attempt: attempt,
						Detail: fmt.Sprintf("blocked %v", d)})
					waitCtx(ctx, d)
					return nil, fmt.Errorf("chaos: injected hang (job %s attempt %d, blocked %v)", id, attempt, d)
				default: // "error"
					in.record(event{Kind: "error", Job: id, Attempt: attempt})
					return nil, fmt.Errorf("chaos: injected error (job %s attempt %d)", id, attempt)
				}
			}
		}
		if in.Spec.SlowP > 0 && in.Spec.SlowBy > 0 &&
			runner.SeededUnit(in.Spec.Seed, "slow", id, fmt.Sprint(attempt)) < in.Spec.SlowP {
			in.record(event{Kind: "slow", Job: id, Attempt: attempt,
				Detail: fmt.Sprintf("delayed %v", in.Spec.SlowBy)})
			waitCtx(ctx, in.Spec.SlowBy)
		}
		return body(ctx)
	}
	return job
}

// decide returns the body fault to inject for this (job, attempt), or ""
// for none. One uniform draw covers the three fault kinds so their
// probabilities compose without correlation artifacts.
func (in *Injector) decide(jobID string, attempt int) string {
	total := in.Spec.PanicP + in.Spec.FailP + in.Spec.HangP
	if total <= 0 {
		return ""
	}
	u := runner.SeededUnit(in.Spec.Seed, "fault", jobID, fmt.Sprint(attempt))
	switch {
	case u < in.Spec.PanicP:
		return "panic"
	case u < in.Spec.PanicP+in.Spec.FailP:
		return "error"
	case u < total:
		return "hang"
	}
	return ""
}

func waitCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// CorruptCache mangles Spec.CorruptN entries of the cache rooted at dir:
// seeded selection over the sorted entry list, bit-flip or truncation
// per Spec.CorruptMode. Returns how many entries were actually mangled
// (fewer than asked when the cache is small). The quarantine path in
// runner.Cache.Get is expected to catch every one.
func (in *Injector) CorruptCache(dir string) (int, error) {
	var entries []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == runner.CorruptDirName {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".json") {
			entries = append(entries, path)
		}
		return nil
	})
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	sort.Strings(entries)
	n := in.Spec.CorruptN
	if n > len(entries) {
		n = len(entries)
	}
	// Seeded selection: rank every entry by a deterministic draw and take
	// the first n, so the same seed corrupts the same entries.
	type ranked struct {
		path string
		u    float64
	}
	rk := make([]ranked, len(entries))
	for i, p := range entries {
		rk[i] = ranked{p, runner.SeededUnit(in.Spec.Seed, "corrupt", filepath.Base(p))}
	}
	sort.Slice(rk, func(i, j int) bool {
		if rk[i].u != rk[j].u {
			return rk[i].u < rk[j].u
		}
		return rk[i].path < rk[j].path
	})
	for i := 0; i < n; i++ {
		if err := in.corruptFile(rk[i].path); err != nil {
			return i, err
		}
	}
	return n, nil
}

func (in *Injector) corruptFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	mode := in.Spec.CorruptMode
	if mode == "" {
		mode = "bitflip"
	}
	var detail string
	if mode == "truncate" {
		cut := len(data) / 2
		data = data[:cut]
		detail = fmt.Sprintf("truncated to %d bytes", cut)
	} else {
		// Flip one bit inside the artifact payload (falling back to the
		// middle of the file): depending on what the flip does to the
		// base64 text, the envelope stops decoding or the checksum stops
		// matching — both must quarantine. A flip elsewhere could land in
		// an unverified diagnostic field and go undetected, which would
		// make the corruption test vacuous.
		lo, hi := 0, len(data)
		marker := []byte(`"artifact":"`)
		if idx := bytes.Index(data, marker); idx >= 0 {
			lo = idx + len(marker)
			if end := bytes.IndexByte(data[lo:], '"'); end > 0 {
				hi = lo + end
			}
		}
		off := lo + int(runner.SeededUnit(in.Spec.Seed, "bitflip", filepath.Base(path))*float64(hi-lo))
		if off >= len(data) {
			off = len(data) - 1
		}
		data[off] ^= 0x01
		detail = fmt.Sprintf("bitflip @%d", off)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	in.record(event{Kind: "corrupt", Target: path, Detail: detail})
	return nil
}

// TruncateManifest cuts the manifest file at a seeded offset past its
// midpoint — the shape of a crash mid-flush: the header and early
// entries survive, the trailing record is torn. No-op (false) when the
// spec doesn't ask for it or the file is missing/tiny.
func (in *Injector) TruncateManifest(path string) (bool, error) {
	if !in.Spec.TruncateManifest {
		return false, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	if len(data) < 4 {
		return false, nil
	}
	lo := len(data) / 2
	cut := lo + int(runner.SeededUnit(in.Spec.Seed, "truncate-manifest")*float64(len(data)-1-lo))
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		return false, err
	}
	in.record(event{Kind: "truncate-manifest", Target: path,
		Detail: fmt.Sprintf("cut at byte %d of %d", cut, len(data))})
	return true, nil
}

// WriteLog writes the injection log as JSONL.
func (in *Injector) WriteLog(w io.Writer) error {
	in.mu.Lock()
	events := append([]event(nil), in.events...)
	in.mu.Unlock()
	for _, ev := range events {
		line, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// WritePrometheus renders the injection counters in the Prometheus text
// exposition format, matching the runner/obs exporters.
func (in *Injector) WritePrometheus(w io.Writer) error {
	counts := in.counts()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	if err := obs.WriteHeader(w, "starvesim_chaos_injected_total", "Orchestration faults injected by the chaos layer.", "counter"); err != nil {
		return err
	}
	for _, k := range kinds {
		if _, err := fmt.Fprintf(w, "starvesim_chaos_injected_total{kind=%q} %d\n", k, counts[k]); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders a one-line human report of what the injector did.
func (in *Injector) Summary() string {
	counts := in.counts()
	if len(counts) == 0 {
		return "chaos: no faults injected"
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	total := 0
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%d %s", counts[k], k)
		total += counts[k]
	}
	return fmt.Sprintf("chaos: %d fault(s) injected (%s), seed %d",
		total, strings.Join(parts, ", "), in.Spec.Seed)
}
