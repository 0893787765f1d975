package network

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"starvation/internal/cca"
	_ "starvation/internal/cca/bbr"
	"starvation/internal/cca/vegas"
	"starvation/internal/endpoint"
	"starvation/internal/netem/faults"
	"starvation/internal/netem/jitter"
	"starvation/internal/trace"
	"starvation/internal/units"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden parity hashes from the current engine")

// goldenScenarios are fixed-seed runs that exercise every scheduling path
// the event loop serves: link departures, propagation, data/ACK jitter
// boxes, inter-link hops, sender pacing/tick/RTO timers, and receiver
// delayed-ACK and aggregation flushes. Their hashed
// output pins the realization bit-for-bit, so any engine change that
// perturbs event order — however subtly — fails here before it can
// silently invalidate cached runner artifacts or the figures tree.
// The scenarios take an optional TelemetryConfig so the telemetry parity
// test can run the identical realizations with the flight recorder on.
// goldenConfig is one golden scenario's raw material: builders return it
// fresh on every call (flow specs carry stateful CCA instances and jitter
// generators, so realizations can never share them), which lets the same
// scenario run through network.New and through a reused Session.
type goldenConfig struct {
	cfg   Config
	specs []FlowSpec
	d     time.Duration
}

func goldenConfigs(tc *TelemetryConfig) map[string]func() goldenConfig {
	return map[string]func() goldenConfig{
		"clean": func() goldenConfig {
			return goldenConfig{
				cfg: Config{Rate: units.Mbps(48), BufferBytes: 64 * 1500, Seed: 7, Telemetry: tc},
				specs: []FlowSpec{
					{
						Alg:       vegas.New(vegas.Config{}),
						Rm:        40 * time.Millisecond,
						FwdJitter: &jitter.Uniform{Max: 4 * time.Millisecond, Rng: rand.New(rand.NewSource(5))},
						Ack:       endpoint.AckConfig{DelayCount: 2},
					},
					{
						Alg:       cca.Lookup("bbr")(endpoint.DefaultMSS, rand.New(rand.NewSource(1))),
						Rm:        80 * time.Millisecond,
						AckJitter: &jitter.Uniform{Max: 2 * time.Millisecond, Rng: rand.New(rand.NewSource(9))},
						StartAt:   500 * time.Millisecond,
					},
				},
				d: 5 * time.Second,
			}
		},
		"impaired": func() goldenConfig {
			return goldenConfig{
				cfg: Config{Rate: units.Mbps(24), BufferBytes: 48 * 1500, Seed: 11, Telemetry: tc},
				specs: []FlowSpec{
					{
						Alg:      vegas.New(vegas.Config{}),
						Rm:       30 * time.Millisecond,
						LossProb: 0.01,
					},
					{
						Alg: vegas.New(vegas.Config{}),
						Rm:  60 * time.Millisecond,
						Ack: endpoint.AckConfig{AggregatePeriod: 5 * time.Millisecond},
						GE:  &faults.GEConfig{PGoodToBad: 0.005, PBadToGood: 0.3, PDropBad: 0.5},
					},
				},
				d: 5 * time.Second,
			}
		},
		// deep holds packets in every FIFO delay element at once: two BBR
		// flows drive the unbuffered bottleneck's queue past the wheel's
		// 67 ms window, and the access link's HopDelay propagates between
		// the two links.
		"deep": func() goldenConfig {
			return goldenConfig{
				cfg: Config{
					Links: []LinkSpec{
						{Name: "access", Rate: units.Mbps(48), HopDelay: 2 * time.Millisecond},
						{Name: "bottleneck", Rate: units.Mbps(12)},
					},
					Bottleneck: 1,
					Seed:       13,
					Telemetry:  tc,
				},
				specs: []FlowSpec{
					{
						Alg:       cca.Lookup("bbr")(endpoint.DefaultMSS, rand.New(rand.NewSource(1))),
						Rm:        40 * time.Millisecond,
						AckJitter: &jitter.Uniform{Max: 2 * time.Millisecond, Rng: rand.New(rand.NewSource(3))},
					},
					{
						Alg:       cca.Lookup("bbr")(endpoint.DefaultMSS, rand.New(rand.NewSource(1))),
						Rm:        20 * time.Millisecond,
						FwdJitter: &jitter.Uniform{Max: 3 * time.Millisecond, Rng: rand.New(rand.NewSource(4))},
						StartAt:   300 * time.Millisecond,
					},
				},
				d: 4 * time.Second,
			}
		},
		// probertt-backlog keeps two BBR flows past the 10 s RTprop window,
		// so each enters ProbeRTT, and starts the 80 ms flow 4 s late, so
		// that its first ProbeRTT (at ~14 s) finds the other flow's queue
		// standing and its own ~400 packets in flight, well above the
		// 4-packet floor: the exit rule is pinned by a backlog, not by an
		// idle path.
		"probertt-backlog": func() goldenConfig {
			return goldenConfig{
				cfg: Config{Rate: units.Mbps(24), Seed: 17, Telemetry: tc},
				specs: []FlowSpec{
					{
						Alg:       cca.Lookup("bbr")(endpoint.DefaultMSS, rand.New(rand.NewSource(21))),
						Rm:        40 * time.Millisecond,
						FwdJitter: &jitter.Uniform{Max: 2 * time.Millisecond, Rng: rand.New(rand.NewSource(22))},
					},
					{
						Alg:       cca.Lookup("bbr")(endpoint.DefaultMSS, rand.New(rand.NewSource(23))),
						Rm:        80 * time.Millisecond,
						FwdJitter: &jitter.Uniform{Max: 2 * time.Millisecond, Rng: rand.New(rand.NewSource(24))},
						StartAt:   4 * time.Second,
					},
				},
				d: 30 * time.Second,
			}
		},
	}
}

func goldenScenarios(tc *TelemetryConfig) map[string]func() *Result {
	out := map[string]func() *Result{}
	for name, build := range goldenConfigs(tc) {
		build := build
		out[name] = func() *Result {
			gc := build()
			return New(gc.cfg, gc.specs...).Run(gc.d)
		}
	}
	return out
}

// hashResult folds every trace and the result table into one digest.
func hashResult(t *testing.T, res *Result) string {
	t.Helper()
	return hashResultQuiet(res)
}

// hashResultQuiet is hashResult without the testing.T, callable from
// worker goroutines (writes to a bytes.Buffer cannot fail).
func hashResultQuiet(res *Result) string {
	var buf bytes.Buffer
	series := []*trace.Series{res.QueueTrace}
	for i := range res.Flows {
		f := &res.Flows[i]
		series = append(series, f.RTT, f.Rate, f.Cwnd)
	}
	for _, s := range series {
		_ = s.WriteCSV(&buf)
	}
	buf.WriteString(res.String())
	fmt.Fprintf(&buf, "fired=%d scheduled=%d\n",
		res.Obs.Global.SimEventsFired, res.Obs.Global.SimEventsScheduled)
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestGoldenParity asserts that fixed-seed realizations are byte-identical
// to the hashes recorded in testdata/golden_parity.json (captured on the
// container/heap engine before the pooled event-queue rewrite). Regenerate
// with: go test ./internal/network -run TestGoldenParity -update
func TestGoldenParity(t *testing.T) {
	path := filepath.Join("testdata", "golden_parity.json")
	got := map[string]string{}
	for name, run := range goldenScenarios(nil) {
		got[name] = hashResult(t, run())
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	for name, h := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden hash recorded (run -update)", name)
		} else if h != w {
			t.Errorf("%s: realization diverged from golden engine: got %s want %s", name, h, w)
		}
	}
}

// TestGoldenParityTelemetry pins the flight recorder's observation-only
// contract in the strongest form: with per-flow telemetry and episode
// detection enabled, every golden realization must hash identically to
// the recorder-off goldens — same traces, same result table, same sim
// event counts. The Telemetry block itself is stripped before hashing
// (it only exists in the instrumented run); everything else must match
// bit for bit.
func TestGoldenParityTelemetry(t *testing.T) {
	plain := map[string]string{}
	for name, run := range goldenScenarios(nil) {
		plain[name] = hashResult(t, run())
	}
	for name, run := range goldenScenarios(&TelemetryConfig{}) {
		res := run()
		if res.Telemetry == nil {
			t.Fatalf("%s: telemetry enabled but Result.Telemetry is nil", name)
		}
		res.Telemetry = nil
		if h := hashResult(t, res); h != plain[name] {
			t.Errorf("%s: telemetry perturbed the realization: got %s want %s",
				name, h, plain[name])
		}
	}
}
