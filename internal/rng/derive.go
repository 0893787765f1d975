package rng

// Stream names one consumer of a flow's randomness. Derive gives every
// (flow, stream) pair of a run a seed of its own, so no two consumers share
// a stream and adding a flow or an element never perturbs another's draws.
type Stream uint8

// The streams, with their salts in Derive.
const (
	Gate      Stream = iota // 17: Bernoulli loss gate
	GE                      // 29: Gilbert–Elliott loss gate
	CCA                     // 43: the flow's congestion controller
	FwdJitter               // 101: forward-path jitter policy
	numStreams
)

// Changing a network stream's salt moves every lossy or faulted
// realization. No two salts may differ by 4: 2⁶⁴ ≡ 4 (mod 2³¹−1), so such
// a pair meets where the product wraps.
var salts = [numStreams]int64{Gate: 17, GE: 29, CCA: 43, FwdJitter: 101}

// Derive returns the seed of stream s of flow flow in the run seeded run:
// run·1000003 + flow·7919 + salt(s). For any run seed and fewer than
// 10 000 flows, the seeds of one run stay distinct after math/rand reduces
// them mod 2³¹−1.
func Derive(run int64, flow int, s Stream) int64 {
	return run*1000003 + int64(flow)*7919 + salts[s]
}
