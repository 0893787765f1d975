package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadManifest throws arbitrary bytes at the manifest loader. The
// contract under any input: no panic, recovered state is well-formed,
// a foreign schema resumes nothing, and the manifest remains usable — a
// Record over the damaged file (appended or rewritten) produces a
// cleanly reloadable manifest.
func FuzzLoadManifest(f *testing.F) {
	valid := `{
  "schema": 1,
  "jobs": {
    "F1": {"fingerprint": "aaaa", "status": "done", "attempts": 2,
           "history": [{"attempt": 1, "kind": "deadline", "msg": "slow"}]},
    "F3": {"fingerprint": "bbbb", "status": "failed",
           "err": {"scenario": "F3", "kind": "panic", "msg": "boom"}}
  }
}`
	f.Add([]byte(valid))
	for _, cut := range []int{10, len(valid) / 3, len(valid) / 2, len(valid) - 5} {
		f.Add([]byte(valid[:cut])) // torn flushes at assorted depths
	}
	f.Add([]byte(`{"schema":2,"jobs":{"F1":{"fingerprint":"aaaa","status":"done"}}}`))
	f.Add([]byte(`{"jobs":{"F1":{"fingerprint":"aaaa","status":"done"}},"schema":1}`))
	f.Add([]byte(`{"future-field":[1,2,{"x":3}],"schema":1,"jobs":{}}`))
	f.Add([]byte(`[1,2,3]`))
	// Journal shapes: a snapshot followed by appended one-line records.
	snapshot := `{"schema":1,"jobs":{"F1":{"fingerprint":"aaaa","status":"done"}}}` + "\n"
	journal := snapshot +
		`{"id":"F2","entry":{"fingerprint":"bbbb","status":"done","attempts":1}}` + "\n" +
		`{"id":"F1","entry":{"fingerprint":"a2a2","status":"failed","err":{"scenario":"F1","kind":"panic","msg":"boom"}}}` + "\n"
	f.Add([]byte(journal))
	f.Add([]byte(journal[:len(journal)-20])) // torn append
	f.Add([]byte(snapshot + `{"id":"F2"}` + "\n" + `{"id":"F3","entry":{"fingerprint":"cccc","status":"done"}}` + "\n"))
	f.Add([]byte(`{"schema":2,"jobs":{}}` + "\n" + `{"id":"F1","entry":{"fingerprint":"aaaa","status":"done"}}` + "\n"))
	f.Add([]byte("not json at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "manifest.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		m := LoadManifest(path) // must not panic on any input
		for id, e := range m.jobs {
			if e.Status != StatusDone && e.Status != statusFailed {
				// Tolerated on a clean parse (forward compatibility), but the
				// entry must never satisfy the resume predicate.
				if m.Done(id, e.Fingerprint) {
					t.Errorf("entry %q with status %q reported resumable", id, e.Status)
				}
			}
		}
		// A cleanly decoded snapshot of another schema resumes nothing, not
		// even journal lines appended after it.
		var snap manifestFile
		if json.NewDecoder(bytes.NewReader(data)).Decode(&snap) == nil && snap.Schema != SchemaVersion && len(m.jobs) != 0 {
			t.Errorf("foreign-schema manifest resumed %d entries", len(m.jobs))
		}
		// The damaged manifest must stay writable and round-trip cleanly.
		if err := m.Record("fuzz-probe", "abcd", StatusDone, nil, 1, nil); err != nil {
			t.Fatalf("Record over damaged manifest: %v", err)
		}
		re := LoadManifest(path)
		if !re.Done("fuzz-probe", "abcd") {
			t.Errorf("recorded entry lost after reload (input %q)", data)
		}
	})
}

// FuzzCacheEntry throws arbitrary bytes at a cache entry file. The
// contract: Get never panics and never returns corrupted data — a hit
// implies the artifact matches its stored checksum — and a subsequent
// Put always heals the address.
func FuzzCacheEntry(f *testing.F) {
	// Seed with a genuine envelope and mutations of it.
	artifact := []byte("genuine artifact payload")
	sum := sha256.Sum256(artifact)
	env, err := json.Marshal(entry{
		Schema:   SchemaVersion,
		Key:      "kind=fuzz|scenario=s",
		Sum:      hex.EncodeToString(sum[:]),
		Artifact: artifact,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(env)
	f.Add(env[:len(env)/2]) // truncated
	flipped := bytes.Clone(env)
	flipped[len(flipped)/2] ^= 0x01 // bit-flipped
	f.Add(flipped)
	f.Add([]byte(`{"schema":999,"key":"k","sum":"00","artifact":"aGk="}`))
	f.Add([]byte(`{"schema":1,"key":"k","sum":"deadbeef","artifact":"aGk="}`))
	f.Add([]byte("junk"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c := &Cache{Dir: t.TempDir()}
		key := Key{Kind: "fuzz", Scenario: "s"}
		fp := c.Fingerprint(key)
		path := c.path(fp)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Skip()
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		if art, ok := c.Get(fp); ok { // must not panic on any input
			// A hit certifies integrity: the returned artifact must match
			// the checksum the envelope itself declares.
			var e entry
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatalf("Get hit on an undecodable envelope")
			}
			got := sha256.Sum256(art)
			if hex.EncodeToString(got[:]) != e.Sum {
				t.Errorf("Get returned an artifact that fails its own checksum")
			}
		}
		// Whatever Get decided, a fresh Put heals the address.
		if err := c.Put(fp, key, []byte("fresh")); err != nil {
			t.Fatalf("Put after fuzzed Get: %v", err)
		}
		if err := c.Flush(); err != nil {
			t.Fatalf("Flush after fuzzed Get: %v", err)
		}
		if art, ok := c.Get(fp); !ok || string(art) != "fresh" {
			t.Errorf("cache not healed by Put: ok=%v art=%q", ok, art)
		}
	})
}
