package core

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/dnnf"
	"repro/internal/trace"
)

// stageLineage builds a small two-route lineage over facts 1..4.
func stageLineage() (*circuit.Node, []db.FactID) {
	b := circuit.NewBuilder()
	elin := b.Or(
		b.And(b.Variable(1), b.Variable(2)),
		b.And(b.Variable(3), b.Variable(4)),
	)
	return elin, []db.FactID{1, 2, 3, 4}
}

func TestArtifactsReuseSameEpoch(t *testing.T) {
	elin, endo := stageLineage()
	art := &Artifacts{}
	first, err := ExplainCircuitAt(context.Background(), elin, endo, 7, art, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := ExplainCircuitAt(context.Background(), elin, endo, 7, art, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if second.CNF != first.CNF {
		t.Error("Tseytin stage recomputed at an unchanged epoch")
	}
	if second.DNNF != first.DNNF {
		t.Error("compile stage recomputed at an unchanged epoch")
	}
	// Values maps are reused by reference when the Shapley stage is skipped.
	if &second.Values == nil || len(second.Values) != len(first.Values) {
		t.Fatalf("cached values differ: %v vs %v", second.Values, first.Values)
	}
	for f, v := range first.Values {
		if second.Values[f].Cmp(v) != 0 {
			t.Errorf("fact %d: cached value %v != %v", f, second.Values[f], v)
		}
	}
	if second.TseytinTime != 0 || second.CompileTime != 0 || second.ShapleyTime != 0 {
		t.Errorf("cached stages reported nonzero times: %v/%v/%v",
			second.TseytinTime, second.CompileTime, second.ShapleyTime)
	}
}

func TestArtifactsRecomputeOnEpochChange(t *testing.T) {
	elin, endo := stageLineage()
	art := &Artifacts{}
	first, err := ExplainCircuitAt(context.Background(), elin, endo, 1, art, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := ExplainCircuitAt(context.Background(), elin, endo, 2, art, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if second.CNF == first.CNF {
		t.Error("Tseytin stage served a stale epoch")
	}
	for f, v := range first.Values {
		if second.Values[f].Cmp(v) != 0 {
			t.Errorf("fact %d: recomputed value %v != %v", f, second.Values[f], v)
		}
	}
}

func TestArtifactsFailedCompileNotCached(t *testing.T) {
	elin, endo := stageLineage()
	art := &Artifacts{}
	// MaxNodes 1 forces the node-budget failure in the compile stage.
	_, err := ExplainCircuitAt(context.Background(), elin, endo, 3, art, PipelineOptions{CompileMaxNodes: 1})
	if err != dnnf.ErrNodeBudget {
		t.Fatalf("err = %v, want ErrNodeBudget", err)
	}
	if art.hasDNNF || art.hasValues {
		t.Error("failed stage output was cached")
	}
	// The Tseytin output is cached (it succeeded) and a follow-up run with a
	// workable budget completes from it.
	if !art.hasCNF {
		t.Error("successful Tseytin stage was not cached")
	}
	res, err := ExplainCircuitAt(context.Background(), elin, endo, 3, art, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CNF != art.cnf {
		t.Error("retry did not reuse the cached CNF")
	}
	if len(res.Values) != 4 {
		t.Fatalf("values for %d facts, want 4", len(res.Values))
	}
}

// TestShapleySpanRecordsArithmetic: a traced explain records on its shapley
// span which arithmetic the DP ran on — uint64 for this four-fact lineage,
// with no fallback.
func TestShapleySpanRecordsArithmetic(t *testing.T) {
	elin, endo := stageLineage()
	for _, strategy := range []ShapleyStrategy{StrategyPerFact, StrategyGradient} {
		ctx, root := trace.NewRoot(context.Background(), "explain", nil)
		if _, err := ExplainCircuitAt(ctx, elin, endo, 1, nil, PipelineOptions{Strategy: strategy}); err != nil {
			t.Fatal(err)
		}
		root.End()
		sp := root.Snapshot().Find(string(StageShapley))
		if sp == nil {
			t.Fatalf("%v: no shapley span", strategy)
		}
		if sp.Attrs["arith"] != "u64" {
			t.Errorf("%v: arith = %v, want u64", strategy, sp.Attrs["arith"])
		}
		if _, ok := sp.Attrs["overflow"]; ok {
			t.Errorf("%v: overflow attribute set without a fallback", strategy)
		}
	}
}
