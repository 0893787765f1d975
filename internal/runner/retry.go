package runner

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"starvation/internal/guard"
)

// Retry backoff constants.
const (
	// defaultRetryBase is the first-retry backoff delay when
	// RetryPolicy.Base is zero.
	defaultRetryBase = 100 * time.Millisecond
	// retryMax caps the exponential backoff.
	retryMax = 5 * time.Second
	// retryJitter is the ±fraction of deterministic jitter applied to
	// every backoff delay.
	retryJitter = 0.5
)

// RetryPolicy is the supervision contract of a Pool: how many times a
// failing job is re-attempted, how long the pool backs off between
// attempts. Which failure kinds are worth retrying is the guard layer's
// table (guard.ErrKind.Retryable): panic, deadline, export and error
// retry; cancelled and invariant are terminal.
//
// Backoff is exponential with deterministic seeded jitter: the delay
// before attempt k+1 is Base·2^(k-1), capped at retryMax, scaled by a
// factor in [1-retryJitter, 1+retryJitter] derived from (Seed, job ID,
// attempt). Two runs of the same batch with the same seed back off
// identically — retry timing is as reproducible as the simulations
// themselves, which is what lets the chaos parity tests assert
// byte-identical outcomes.
//
// The zero RetryPolicy disables retries (every job gets one attempt),
// preserving the pre-supervision Pool behavior.
type RetryPolicy struct {
	// MaxAttempts bounds the total attempts per job; values <= 1 disable
	// retries.
	MaxAttempts int
	// Base is the first-retry delay (0 selects defaultRetryBase).
	Base time.Duration
	// Seed drives the deterministic jitter.
	Seed int64
}

func (rp RetryPolicy) maxAttempts() int {
	if rp.MaxAttempts > 1 {
		return rp.MaxAttempts
	}
	return 1
}

// backoff returns the deterministic delay before the retry that follows
// failed attempt number attempt (1-based) of the given job.
func (rp RetryPolicy) backoff(jobID string, attempt int) time.Duration {
	d := rp.Base
	if d <= 0 {
		d = defaultRetryBase
	}
	for i := 1; i < attempt && d < retryMax; i++ {
		d *= 2
	}
	if d > retryMax {
		d = retryMax
	}
	// Deterministic factor in [1-retryJitter, 1+retryJitter): reruns of a
	// batch back off identically for the same seed.
	u := SeededUnit(rp.Seed, "backoff", jobID, fmt.Sprint(attempt))
	return time.Duration(float64(d) * (1 - retryJitter + 2*retryJitter*u))
}

// AttemptError is the compact record of one failed attempt, kept in
// JobResult and the batch manifest so attempt history survives resume.
type AttemptError struct {
	// Attempt is the 1-based attempt number that failed.
	Attempt int `json:"attempt"`
	// Kind classifies the failure (guard.ErrKind).
	Kind guard.ErrKind `json:"kind"`
	// Msg is the failure message, truncated for manifest hygiene.
	Msg string `json:"msg"`
}

// attemptErrMsgMax bounds the message kept per attempt; stacks and long
// wrapped errors live in the terminal RunError, not the history.
const attemptErrMsgMax = 200

func attemptError(attempt int, rerr *guard.RunError) AttemptError {
	msg := rerr.Msg
	if len(msg) > attemptErrMsgMax {
		msg = msg[:attemptErrMsgMax] + "…"
	}
	return AttemptError{Attempt: attempt, Kind: rerr.Kind, Msg: msg}
}

// SeededUnit hashes (seed, parts...) into a uniform float64 in [0, 1).
// It is the deterministic randomness source shared by retry jitter and
// the chaos injector: FNV-1a, so the mapping is stable across platforms
// and Go versions.
func SeededUnit(seed int64, parts ...string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", seed)
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	// 53 bits of hash → [0,1) exactly representable in a float64.
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// sleepCtx waits d or until ctx is cancelled, reporting whether the full
// wait completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
