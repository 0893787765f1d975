package runner

import (
	"testing"
	"time"
)

// referenceKey is the pinned reference job: the T5 bbr-two scenario at
// its published parameters.
func referenceKey() Key {
	return Key{
		Kind:     "figures-section",
		Scenario: "bbr-two",
		Seed:     2,
		Duration: 60 * time.Second,
		Params:   []string{"quick=false", "obs=false"},
	}
}

// TestFingerprintGolden pins the fingerprint of the reference key so an
// accidental change to the canonical encoding (field order, separators,
// added fields) is caught: such a change silently invalidates every
// existing cache, which must only ever happen via a deliberate
// SchemaVersion bump. The pinned value predates the removal of the key's
// impairment field (always empty in every key the program builds): its
// slot stays in the encoding, so no existing cache entry moved.
func TestFingerprintGolden(t *testing.T) {
	const want = "b2b5119fc7a031028fd50cb15c344baa6890705e1d6c19c6aef1cc850c1cf62d"
	if got := referenceKey().Fingerprint(1); got != want {
		t.Errorf("reference fingerprint changed:\n got %s\nwant %s\n"+
			"If the Key encoding changed deliberately, bump SchemaVersion and repin.", got, want)
	}
}

// TestFingerprintFieldSeparation checks that no pair of keys assembled
// from shifted field contents collides: the length-prefixed encoding
// must keep "ab"+"c" distinct from "a"+"bc" in every adjacent pair.
func TestFingerprintFieldSeparation(t *testing.T) {
	base := referenceKey()
	variants := []Key{
		{Kind: base.Kind + "x", Scenario: base.Scenario[:len(base.Scenario)-1], Seed: base.Seed, Duration: base.Duration, Params: base.Params},
		{Kind: base.Kind, Scenario: base.Scenario + "1", Seed: base.Seed, Duration: base.Duration, Params: base.Params},
		{Kind: base.Kind, Scenario: base.Scenario, Seed: base.Seed + 1, Duration: base.Duration, Params: base.Params},
		{Kind: base.Kind, Scenario: base.Scenario, Seed: base.Seed, Duration: base.Duration + 1, Params: base.Params},
		{Kind: base.Kind, Scenario: base.Scenario, Seed: base.Seed, Duration: base.Duration, Params: []string{"quick=true", "obs=false"}},
	}
	seen := map[string]Key{base.Fingerprint(1): base}
	for _, v := range variants {
		fp := v.Fingerprint(1)
		if prev, dup := seen[fp]; dup {
			t.Errorf("collision: %v and %v share fingerprint %s", prev, v, fp)
		}
		seen[fp] = v
	}
}

// TestFingerprintParamOrder checks Params are canonicalized: permuting
// them must not change the address (callers build them from maps).
func TestFingerprintParamOrder(t *testing.T) {
	a := referenceKey()
	b := referenceKey()
	b.Params = []string{"obs=false", "quick=false"}
	if a.Fingerprint(1) != b.Fingerprint(1) {
		t.Errorf("param order changed the fingerprint: %s vs %s", a.Fingerprint(1), b.Fingerprint(1))
	}
}

// TestFingerprintSchema checks the schema version participates in the
// address, so a bump orphans (invalidates) every old entry.
func TestFingerprintSchema(t *testing.T) {
	k := referenceKey()
	if k.Fingerprint(1) == k.Fingerprint(2) {
		t.Errorf("schema bump did not change the fingerprint")
	}
}

// TestKeyIsZero pins the cacheability predicate.
func TestKeyIsZero(t *testing.T) {
	if !(Key{}).isZero() {
		t.Errorf("zero Key not IsZero")
	}
	if (Key{Kind: "x"}).isZero() || (Key{Seed: 1}).isZero() || (Key{Params: []string{"a=1"}}).isZero() {
		t.Errorf("non-zero Key reported IsZero")
	}
}
