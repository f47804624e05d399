package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/db"
)

func TestHybridExactPath(t *testing.T) {
	elin, endo, fs := flightsELin(t)
	res, err := Hybrid(context.Background(), elin, endo, PipelineOptions{CompileTimeout: 10 * time.Second, ShapleyTimeout: 10 * time.Second}, ExplainBudget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodExact {
		t.Fatalf("method = %v, want exact", res.Method)
	}
	ratEq(t, res.Values[fs.A[1].ID], 43, 105, "hybrid exact Shapley(a1)")
	if len(res.Ranking) != len(endo) {
		t.Fatalf("ranking has %d facts, want %d", len(res.Ranking), len(endo))
	}
	if res.Ranking[0] != fs.A[1].ID {
		t.Errorf("top-ranked fact = %d, want a1 (%d)", res.Ranking[0], fs.A[1].ID)
	}
	if res.Exact == nil || res.Exact.Values == nil {
		t.Error("exact pipeline result missing")
	}
}

func TestHybridFallsBackToProxy(t *testing.T) {
	elin, endo, fs := flightsELin(t)
	// A node budget of 1 forces the compiler to fail immediately,
	// exercising the out-of-memory fallback path.
	res, err := Hybrid(context.Background(), elin, endo, PipelineOptions{CompileTimeout: 10 * time.Second, ShapleyTimeout: 10 * time.Second, CompileMaxNodes: 1}, ExplainBudget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodProxy {
		t.Fatalf("method = %v, want proxy", res.Method)
	}
	if res.Values != nil {
		t.Error("proxy fallback should not carry exact values")
	}
	if res.Proxy == nil || len(res.Ranking) == 0 {
		t.Fatal("proxy fallback missing scores or ranking")
	}
	// The proxy ranking must still place the a2..a5 group above a6, a7
	// (Example 5.3's qualitative property).
	pos := make(map[db.FactID]int)
	for i, id := range res.Ranking {
		pos[id] = i
	}
	for i := 2; i <= 5; i++ {
		for j := 6; j <= 7; j++ {
			if pos[fs.A[i].ID] > pos[fs.A[j].ID] {
				t.Errorf("proxy ranking places a%d below a%d", i, j)
			}
		}
	}
}

func TestHybridMethodString(t *testing.T) {
	if MethodExact.String() != "exact" || MethodProxy.String() != "cnf-proxy" {
		t.Errorf("method strings: %q, %q", MethodExact.String(), MethodProxy.String())
	}
}

func TestPipelineShapleyTimeout(t *testing.T) {
	elin, endo, _ := flightsELin(t)
	// A zero compile budget with a negative-duration Shapley deadline: use
	// an absurdly small positive timeout instead to trigger the per-fact
	// deadline check deterministically.
	_, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{ShapleyTimeout: time.Nanosecond})
	if err != ErrShapleyTimeout {
		t.Fatalf("err = %v, want ErrShapleyTimeout", err)
	}
}
