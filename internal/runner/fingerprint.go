package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"
)

// SchemaVersion is the cache-schema version baked into every fingerprint.
// Bump it whenever a change alters what an unchanged configuration would
// produce — a simulator fix, a new artifact field, a different CSV column —
// so every previously cached result becomes unreachable instead of stale.
const SchemaVersion = 3

// Key is the canonical configuration of one job: the complete set of
// inputs that determine its artifact. Two jobs with equal Keys must
// produce byte-identical artifacts (every run is deterministic), which is
// what makes the content-addressed cache sound.
//
// The zero Key marks a job as uncacheable: the pool always executes it.
type Key struct {
	// Kind namespaces the job family (e.g. "figures-section",
	// "scenario-run") so distinct producers can never collide.
	Kind string
	// Scenario is the scenario or section identifier.
	Scenario string
	// Seed is the RNG seed of the run (0 when the job fixes its own).
	Seed int64
	// Duration is the virtual run length (0 when the job fixes its own).
	Duration time.Duration
	// Params carries any remaining configuration as "name=value" strings;
	// the encoding sorts them, so order never changes the fingerprint.
	Params []string
}

// isZero reports whether the key is the zero (uncacheable) key.
func (k Key) isZero() bool {
	return k.Kind == "" && k.Scenario == "" && k.Seed == 0 &&
		k.Duration == 0 && len(k.Params) == 0
}

// canonical returns the unambiguous byte encoding the fingerprint hashes:
// the schema version followed by each field as "<len>:<bytes>", so no
// choice of field values can collide with another ("ab"+"c" ≠ "a"+"bc").
func (k Key) canonical(schema int) []byte {
	params := append([]string(nil), k.Params...)
	sort.Strings(params)
	var b strings.Builder
	field := func(s string) {
		fmt.Fprintf(&b, "%d:%s", len(s), s)
	}
	fmt.Fprintf(&b, "v%d/", schema)
	field(k.Kind)
	field(k.Scenario)
	field(fmt.Sprintf("%d", k.Seed))
	field(fmt.Sprintf("%d", int64(k.Duration)))
	field("") // the retired impairment slot: keeps every address stable
	for _, p := range params {
		field(p)
	}
	return []byte(b.String())
}

// Fingerprint returns the content address of the key under the given
// schema version: the hex SHA-256 of the canonical encoding.
func (k Key) Fingerprint(schema int) string {
	sum := sha256.Sum256(k.canonical(schema))
	return hex.EncodeToString(sum[:])
}

// String renders the key for manifests and cache envelopes (diagnostic,
// not the hashed form).
func (k Key) String() string {
	params := append([]string(nil), k.Params...)
	sort.Strings(params)
	return fmt.Sprintf("%s/%s seed=%d dur=%s params=[%s]",
		k.Kind, k.Scenario, k.Seed, k.Duration, strings.Join(params, " "))
}
