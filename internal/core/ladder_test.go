package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestHybridLadderMatrix pins the degradation ladder's cells: which budget
// knobs arm which fallback, which caps win when both are set, and what the
// trace records on the way down.
func TestHybridLadderMatrix(t *testing.T) {
	cases := []struct {
		name   string
		opts   PipelineOptions
		budget ExplainBudget
		method Method
		cause  string // HybridResult.DegradedCause
		// spanCause is the "cause" attribute expected on the fallback span
		// ("proxy" or "approx"); empty for exact results.
		spanCause string
		compiled  bool // whether a compile span was recorded
	}{
		{
			name:     "exact mode ignores budget caps",
			opts:     PipelineOptions{CompileTimeout: 10 * time.Second, ShapleyTimeout: 10 * time.Second},
			budget:   ExplainBudget{Mode: ModeExact, MaxNodes: 1, Deadline: time.Nanosecond},
			method:   MethodExact,
			compiled: true,
		},
		{
			name:      "exact mode degrades to proxy",
			opts:      PipelineOptions{CompileTimeout: 10 * time.Second, ShapleyTimeout: 10 * time.Second, CompileMaxNodes: 1},
			budget:    ExplainBudget{Mode: ModeExact, MaxNodes: 1 << 30, Deadline: time.Minute},
			method:    MethodProxy,
			spanCause: CauseNodeBudget,
			compiled:  true,
		},
		{
			name:      "disabled budget timeout degrades to proxy",
			opts:      PipelineOptions{CompileTimeout: time.Nanosecond, ShapleyTimeout: time.Nanosecond},
			method:    MethodProxy,
			spanCause: CauseDeadline,
			compiled:  true,
		},
		{
			name:      "looser budget node cap does not loosen the pipeline cap",
			opts:      PipelineOptions{CompileMaxNodes: 1},
			budget:    ExplainBudget{MaxNodes: 1 << 30, MinSamples: 64},
			method:    MethodApprox,
			cause:     CauseNodeBudget,
			spanCause: CauseNodeBudget,
			compiled:  true,
		},
		{
			name:      "approximate mode skips the exact attempt",
			budget:    ExplainBudget{Mode: ModeApproximate, MinSamples: 64},
			method:    MethodApprox,
			cause:     CauseMode,
			spanCause: CauseMode,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			elin, endo, fs := flightsELin(t)
			ctx, root := trace.NewRoot(context.Background(), "explain", nil)
			res, err := Hybrid(ctx, elin, endo, tc.opts, tc.budget)
			root.End()
			if err != nil {
				t.Fatal(err)
			}
			if res.Method != tc.method {
				t.Fatalf("method = %v, want %v", res.Method, tc.method)
			}
			if res.DegradedCause != tc.cause {
				t.Errorf("DegradedCause = %q, want %q", res.DegradedCause, tc.cause)
			}
			if len(res.Ranking) != len(endo) {
				t.Errorf("ranking has %d facts, want %d", len(res.Ranking), len(endo))
			}
			snap := root.Snapshot()
			if got := snap.Find(string(StageCompile)) != nil; got != tc.compiled {
				t.Errorf("compile span recorded = %v, want %v", got, tc.compiled)
			}
			switch tc.method {
			case MethodExact:
				ratEq(t, res.Values[fs.A[1].ID], 43, 105, "Shapley(a1)")
				if snap.Find("proxy") != nil || snap.Find(string(StageApprox)) != nil {
					t.Error("exact result recorded a fallback span")
				}
			case MethodProxy:
				if res.Proxy == nil || res.Exact == nil || res.Approx != nil {
					t.Errorf("proxy result carries Proxy=%v Exact=%v Approx=%v", res.Proxy != nil, res.Exact != nil, res.Approx != nil)
				}
				spanCauseEq(t, snap.Find("proxy"), tc.spanCause)
			case MethodApprox:
				if res.Approx == nil || res.Exact != nil || res.Values != nil || res.Proxy != nil {
					t.Errorf("approx result carries Approx=%v Exact=%v Values=%v Proxy=%v",
						res.Approx != nil, res.Exact != nil, res.Values != nil, res.Proxy != nil)
				}
				spanCauseEq(t, snap.Find(string(StageApprox)), tc.spanCause)
			}
		})
	}
}

func spanCauseEq(t *testing.T, n *trace.SpanNode, want string) {
	t.Helper()
	if n == nil {
		t.Fatal("fallback span not recorded")
	}
	if got, _ := n.Attr("cause"); got != want {
		t.Errorf("fallback span cause = %v, want %q", got, want)
	}
}
