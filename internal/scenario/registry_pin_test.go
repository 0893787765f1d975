package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"
)

// pinDuration runs each row past its time-anchored element: the dip and
// the step fire at 10 s, quickstart's second flow starts at 5 s, and the
// 500-flow population is pinned on a short run to keep the test quick.
func pinDuration(name string) time.Duration {
	switch name {
	case "copa-single", "copa-two", "vegas-jitter":
		return 11 * time.Second
	case "quickstart-vegas":
		return 6 * time.Second
	case "pop-mixed-500":
		return time.Second
	}
	return 2 * time.Second
}

// pinHash digests what a realization must keep: the observables (exact
// bits, sorted by name), each flow's name, cohort and packet counts, and
// the simulator's event counts.
func pinHash(r *Result) string {
	var b strings.Builder
	keys := make([]string, 0, len(r.Observables))
	for k := range r.Observables {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%x\n", k, math.Float64bits(r.Observables[k]))
	}
	for i, f := range r.Net.Obs.Flows {
		fmt.Fprintf(&b, "flow %d %q cohort=%q delivered=%d dropped=%d acks=%d acked_bytes=%d\n",
			i, f.Name, f.Cohort, f.PacketsDelivered, f.PacketsDropped, f.AcksReceived, f.BytesAcked)
	}
	g := r.Net.Obs.Global
	fmt.Fprintf(&b, "fired=%d scheduled=%d\n", g.SimEventsFired, g.SimEventsScheduled)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// registryPins holds every registered row's pinHash at seeds 2 and 3. A
// refactor of how rows are declared or built must leave it unchanged; a
// change that moves a realization on purpose rewrites it and says so.
var registryPins = map[string]string{
	"algo1-ablation/2":   "dfaa4839c4550d0b",
	"algo1-ablation/3":   "a0f9f22fead088e4",
	"algo1-fair/2":       "e20308a279a20c4b",
	"algo1-fair/3":       "007d4ab2471d6e36",
	"allegro-both/2":     "c7ead700b24cf85c",
	"allegro-both/3":     "79fbd20ceb5624ac",
	"allegro-burst/2":    "ea6ae14ce2a484b8",
	"allegro-burst/3":    "ca373b8b385a4f14",
	"allegro-loss/2":     "be274d5f67b73542",
	"allegro-loss/3":     "ba5d9fba7fab849e",
	"allegro-single/2":   "7b80112d403db136",
	"allegro-single/3":   "09a01bceb2b12bbf",
	"bbr-two/2":          "e2450125b83385e0",
	"bbr-two/3":          "42e37048c91da75a",
	"copa-single/2":      "8d48da7377d8c951",
	"copa-single/3":      "8d48da7377d8c951",
	"copa-two/2":         "85824a94a4faad93",
	"copa-two/3":         "85824a94a4faad93",
	"ecn-fairness/2":     "556aa583ae5eeb2a",
	"ecn-fairness/3":     "3bd099e5efdc8879",
	"fig7-cubic/2":       "075dccce12346621",
	"fig7-cubic/3":       "075dccce12346621",
	"fig7-reno/2":        "34055b714816523c",
	"fig7-reno/3":        "34055b714816523c",
	"pop-fanin/2":        "e66fb8242860e4bc",
	"pop-fanin/3":        "e66fb8242860e4bc",
	"pop-mixed-500/2":    "010ea8953b51b02c",
	"pop-mixed-500/3":    "51c0f261940a8448",
	"pop-mixed/2":        "537d2a35c9f3f636",
	"pop-mixed/3":        "537d2a35c9f3f636",
	"pop-parkinglot/2":   "bbcb1f20b183c1bd",
	"pop-parkinglot/3":   "bbcb1f20b183c1bd",
	"pop-rtt/2":          "4c4014e8a47be103",
	"pop-rtt/3":          "4c4014e8a47be103",
	"quickstart-vegas/2": "4fb7812552af56e1",
	"quickstart-vegas/3": "4fb7812552af56e1",
	"vegas-jitter/2":     "b4e406b23ada6b27",
	"vegas-jitter/3":     "b4e406b23ada6b27",
	"vivace-ackagg/2":    "6c3f85cd8ad8de87",
	"vivace-ackagg/3":    "d03452370c3ca609",
}

// TestRegistryPinned runs every Registry row at seeds 2 and 3 and checks
// each realization against registryPins.
func TestRegistryPinned(t *testing.T) {
	got := map[string]string{}
	for _, name := range Names() {
		for _, seed := range []int64{2, 3} {
			res := Registry[name](Opts{Seed: seed, Duration: pinDuration(name)})
			got[fmt.Sprintf("%s/%d", name, seed)] = pinHash(res)
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var table strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&table, "\t%q: %q,\n", k, got[k])
		if want, ok := registryPins[k]; !ok {
			t.Errorf("%s: no pin recorded", k)
		} else if got[k] != want {
			t.Errorf("%s: realization moved: got %s want %s", k, got[k], want)
		}
	}
	if len(registryPins) != len(got) {
		t.Errorf("registryPins has %d entries, the registry ran %d", len(registryPins), len(got))
	}
	if t.Failed() {
		t.Logf("current table:\n%s", table.String())
	}
}
