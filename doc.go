// Package starvation reproduces "Starvation in End-to-End Congestion
// Control" (Arun, Alizadeh, Balakrishnan — SIGCOMM 2022) as a Go library:
// a deterministic packet-level link emulator, the delay-bounding congestion
// control algorithms the paper studies (Vegas, FAST, Copa, BBR, PCC Vivace,
// PCC Allegro) and the loss-based baselines (Reno, Cubic), the bounded
// non-congestive delay network model of §3, the constructive machinery of
// Theorems 1 and 2, the §6.3 starvation-resistant Algorithm 1, and a
// harness (cmd/figures) that regenerates every figure and table.
//
// Start with DESIGN.md for the system inventory, EXPERIMENTS.md for
// paper-vs-measured results, and `starvesim -scenario quickstart-vegas`
// (a flow set in internal/scenario/rows.go) for code.
//
// The root package holds only this documentation; the implementation
// lives under internal/, the runnable tools under cmd/ and examples/, and
// the repository's benchmark, a Go module of its own, under bench/.
package starvation
