package service

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"starvation/internal/runner/chaos"
	"starvation/internal/scenario"
)

// maxBatchJobs bounds a single batch; the queue-depth bound is the real
// admission control, this just keeps one request body from being absurd.
const maxBatchJobs = 10000

// maxRequestBytes bounds a batch request body.
const maxRequestBytes = 1 << 20

// JobRequest is one experiment of a batch: a population spec plus a name
// for the manifest and the artifact tree. The spec fields are exactly the
// CLI's population-mode flags, in the same clause grammar.
type JobRequest struct {
	// Name is the job's stable identifier within the batch (defaults to
	// its index; sweeps name jobs by seed).
	Name string `json:"name,omitempty"`
	scenario.PopulationSpec
	// DurationSec is the JSON-friendly run length (0 selects the default).
	DurationSec float64 `json:"duration_sec,omitempty"`
}

// spec returns the PopulationSpec with the JSON duration folded in; a
// negative one is folded too, for Validate to refuse.
func (j JobRequest) spec() scenario.PopulationSpec {
	s := j.PopulationSpec
	if j.DurationSec != 0 {
		s.Duration = time.Duration(j.DurationSec * float64(time.Second))
	}
	return s
}

// SweepRequest expands one spec across consecutive seeds — the service
// form of the CLI's -sweep flag.
type SweepRequest struct {
	JobRequest
	// SeedFrom is the first seed (0 selects the reference seed).
	SeedFrom int64 `json:"seed_from,omitempty"`
	// Seeds is how many consecutive seeds to run (required, ≥ 1).
	Seeds int `json:"seeds"`
}

// BatchRequest is the POST /batches body: a set of population experiments
// submitted under a client identity and scheduling weight.
type BatchRequest struct {
	// Client is the tenant identity the scheduler queues under (defaults
	// to "anonymous"). Fairness is per client, not per batch.
	Client string `json:"client,omitempty"`
	// Weight is the client's deficit-round-robin weight (default 1).
	Weight int `json:"weight,omitempty"`
	// Name is an optional human label shown on the dashboard.
	Name string `json:"name,omitempty"`
	// Jobs lists explicit experiments.
	Jobs []JobRequest `json:"jobs,omitempty"`
	// Sweep expands into seed-named jobs appended after Jobs.
	Sweep *SweepRequest `json:"sweep,omitempty"`
	// Chaos, when set, runs the whole batch under the chaos injector with
	// this spec (see internal/runner/chaos for the grammar) and the retry
	// budget the spec implies.
	Chaos string `json:"chaos,omitempty"`
}

// batchJob is one validated, named, runnable unit of a batch.
type batchJob struct {
	Name string                  `json:"name"`
	Spec scenario.PopulationSpec `json:"spec"`
	// DurationSec persists the duration across daemon restarts (Spec's
	// Duration field does not serialize).
	DurationSec float64 `json:"duration_sec,omitempty"`
}

// spec returns the runnable spec with the persisted duration folded back
// in. Every consumer must go through this — using Spec directly after a
// daemon restart would see the default duration and compute a different
// cache fingerprint, silently re-simulating every resumed job.
func (bj batchJob) spec() scenario.PopulationSpec {
	s := bj.Spec
	if bj.DurationSec > 0 {
		s.Duration = time.Duration(bj.DurationSec * float64(time.Second))
	}
	return s
}

// DecodeBatchRequest reads and validates a batch request. Any error it
// returns is a client error (HTTP 400) carrying, for spec problems, the
// same message the CLI exits 2 with — the shared error-string contract.
func DecodeBatchRequest(r io.Reader) (BatchRequest, []batchJob, error) {
	var req BatchRequest
	dec := json.NewDecoder(io.LimitReader(r, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, nil, fmt.Errorf("decoding batch request: %v", err)
	}
	jobs, err := req.expand()
	if err != nil {
		return req, nil, err
	}
	return req, jobs, nil
}

// expand names, expands, and validates the request's jobs.
func (req BatchRequest) expand() ([]batchJob, error) {
	if req.Weight < 0 {
		return nil, fmt.Errorf("weight %d negative", req.Weight)
	}
	if req.Chaos != "" {
		if _, err := chaos.Parse(req.Chaos); err != nil {
			return nil, err
		}
	}
	var jobs []batchJob
	seen := map[string]bool{}
	add := func(name string, jr JobRequest, validate bool) error {
		name = sanitizeName(name)
		if seen[name] {
			return fmt.Errorf("duplicate job name %q", name)
		}
		seen[name] = true
		spec := jr.spec()
		if validate {
			if err := spec.Validate(); err != nil {
				return fmt.Errorf("job %q: %w", name, err)
			}
		}
		jobs = append(jobs, batchJob{Name: name, Spec: spec, DurationSec: jr.DurationSec})
		return nil
	}
	for i, jr := range req.Jobs {
		name := jr.Name
		if name == "" {
			name = fmt.Sprintf("job-%03d", i)
		}
		if err := add(name, jr, true); err != nil {
			return nil, err
		}
	}
	if req.Sweep != nil {
		if req.Sweep.Seeds < 1 {
			return nil, fmt.Errorf("sweep: seeds %d, want >= 1", req.Sweep.Seeds)
		}
		base := req.Sweep.SeedFrom
		if base == 0 {
			base = scenario.ReferenceSeed
		}
		prefix := req.Sweep.Name
		if prefix == "" {
			prefix = "seed"
		}
		// Validity does not depend on the seed (it only seeds generators,
		// and validation draws from none), so the first seed's job
		// validates the sweep and names it in the error.
		for k := 0; k < req.Sweep.Seeds; k++ {
			jr := req.Sweep.JobRequest
			jr.Seed = base + int64(k)
			if err := add(fmt.Sprintf("%s-%d", prefix, jr.Seed), jr, k == 0); err != nil {
				return nil, err
			}
		}
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("batch has no jobs")
	}
	if len(jobs) > maxBatchJobs {
		return nil, fmt.Errorf("batch has %d jobs, max %d", len(jobs), maxBatchJobs)
	}
	return jobs, nil
}

// sanitizeName maps a job name onto the filesystem-safe alphabet used for
// manifest keys and artifact filenames.
func sanitizeName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteRune('-')
		}
	}
	if b.Len() == 0 {
		return "job"
	}
	const maxName = 100
	s := b.String()
	if len(s) > maxName {
		s = s[:maxName]
	}
	return s
}
