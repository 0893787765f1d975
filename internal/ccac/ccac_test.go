package ccac

import (
	"testing"
)

func TestAIMDBoundedWithoutInjection(t *testing.T) {
	// The Appendix C claim: over 10-RTT traces with a 1-BDP buffer and
	// losses only from overflow, two AIMD flows cannot be starved — the
	// worst cumulative ratio the adversary can force is bounded.
	res := Search(Params{CPkts: 20, BufferPkts: 20, Depth: 10})
	t.Logf("\n%s", res)
	if res.MaxRatio > 25 {
		t.Errorf("worst ratio %.1f suggests unbounded starvation; "+
			"AIMD under pure overflow loss must stay bounded", res.MaxRatio)
	}
	if res.StatesExplored < 100 {
		t.Errorf("suspiciously small search: %d nodes", res.StatesExplored)
	}
}

func TestAIMDRatioDoesNotGrowWithDepth(t *testing.T) {
	// Starvation per Definition 3 means no finite s bounds the ratio as
	// time grows. For overflow-only AIMD the worst ratio must flatten
	// with depth (the faster flow's own overflow losses give the slower
	// one room — the §5.4 argument).
	r8 := Search(Params{CPkts: 16, BufferPkts: 16, Depth: 8})
	r12 := Search(Params{CPkts: 16, BufferPkts: 16, Depth: 12})
	t.Logf("depth 8: %.2f, depth 12: %.2f", r8.MaxRatio, r12.MaxRatio)
	if r12.MaxRatio > r8.MaxRatio*2 {
		t.Errorf("ratio grows with depth (%.1f -> %.1f): unbounded unfairness",
			r8.MaxRatio, r12.MaxRatio)
	}
}

func TestInjectedLossEnablesStarvation(t *testing.T) {
	// With per-step non-congestive loss against one flow (§5.4's random
	// loss), the adversary can pin flow 1 at its window floor while flow
	// 2 grows: the worst ratio must far exceed the overflow-only bound
	// and keep growing with depth.
	clean := Search(Params{CPkts: 20, BufferPkts: 20, Depth: 10})
	inj := Search(Params{CPkts: 20, BufferPkts: 20, Depth: 10, InjectLoss: true})
	t.Logf("clean %.2f vs injected %.2f", clean.MaxRatio, inj.MaxRatio)
	if inj.MaxRatio <= clean.MaxRatio {
		t.Errorf("loss injection did not worsen the ratio: %.1f vs %.1f",
			inj.MaxRatio, clean.MaxRatio)
	}
	deeper := Search(Params{CPkts: 20, BufferPkts: 20, Depth: 14, InjectLoss: true})
	if deeper.MaxRatio <= inj.MaxRatio {
		t.Errorf("injected-loss ratio did not grow with depth: %.1f vs %.1f",
			deeper.MaxRatio, inj.MaxRatio)
	}
}

func TestWitnessTraceIsConsistent(t *testing.T) {
	res := Search(Params{CPkts: 20, BufferPkts: 20, Depth: 10, InjectLoss: true})
	if len(res.WorstTrace) != 10 {
		t.Fatalf("witness length %d, want 10", len(res.WorstTrace))
	}
	// Replay the trace and verify the recorded states follow the model.
	p := Params{CPkts: 20, BufferPkts: 20, Depth: 10, InjectLoss: true}
	st := res.WorstTrace[0].State
	for i, step := range res.WorstTrace {
		if step.State != st {
			t.Fatalf("step %d state %+v, replay %+v", i, step.State, st)
		}
		served := min(st.W1+st.W2+st.Q, p.CPkts)
		st = applyAIMD(st, step.Victim, step.Injected, served, p)
	}
}

func TestDefaults(t *testing.T) {
	res := Search(Params{})
	if res.MaxRatio <= 0 {
		t.Error("default search produced no ratio")
	}
	states := initialStates(20, 20)
	if len(states) == 0 {
		t.Error("no default initial states")
	}
	for _, s := range states {
		if s.W1 < 1 || s.W2 < 1 || s.Q < 0 {
			t.Errorf("invalid default state %+v", s)
		}
	}
}
