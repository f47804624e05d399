package core

import (
	"context"
	"time"

	"repro/internal/circuit"
	"repro/internal/db"
	"repro/internal/trace"
)

// Method identifies which algorithm produced a hybrid result.
type Method uint8

// Hybrid outcome methods.
const (
	// MethodExact means the exact pipeline finished within its budget and
	// the result carries exact Shapley values.
	MethodExact Method = iota
	// MethodProxy means the exact pipeline timed out and the ranking was
	// produced by CNF Proxy.
	MethodProxy
	// MethodApprox means a request budget was exhausted (or approximation
	// was requested outright) and the values are Monte Carlo estimates with
	// 95% confidence intervals (see ApproxResult).
	MethodApprox
)

func (m Method) String() string {
	switch m {
	case MethodExact:
		return "exact"
	case MethodApprox:
		return "approximate"
	default:
		return "cnf-proxy"
	}
}

// HybridResult is the outcome of the hybrid strategy: exact values when the
// exact pipeline succeeded, otherwise a CNF Proxy ranking — or, under an
// enabled ExplainBudget, sampled estimates with confidence intervals.
type HybridResult struct {
	Method  Method
	Values  Values        // exact Shapley values; nil unless Method == MethodExact
	Proxy   ProxyValues   // proxy scores; nil unless Method == MethodProxy
	Approx  *ApproxResult // sampled estimates; nil unless Method == MethodApprox
	Ranking []db.FactID   // facts by decreasing contribution
	Exact   *PipelineResult
	Elapsed time.Duration
	// DegradedCause says why a budgeted request degraded to MethodApprox
	// ("mode", "node_budget", "deadline", or "error"; see the Cause*
	// constants). Empty for exact and proxy results.
	DegradedCause string
}

// Hybrid runs the degradation ladder of Section 6.3 on one lineage: the
// exact pipeline under opts' limits first (the paper recommends
// CompileTimeout = ShapleyTimeout = t = 2.5 s), then a fallback when the
// attempt exceeds them. With the budget b disabled the fallback is CNF
// Proxy; with b enabled it is StageApprox, b.MaxNodes tightens
// opts.CompileMaxNodes, b.Deadline bounds the attempt's wall clock, and
// ModeApproximate skips the attempt. A non-nil error is returned only when
// ctx itself is cancelled — budget exhaustion is what the fallback is for,
// but a caller that gave up wants no answer.
func Hybrid(ctx context.Context, elin *circuit.Node, endo []db.FactID, opts PipelineOptions, b ExplainBudget) (*HybridResult, error) {
	return HybridAt(ctx, elin, endo, 0, nil, opts, b)
}

// HybridAt is Hybrid for a lineage at a given epoch, reusing per-stage
// outputs cached in art from a previous call at the same epoch (nil art
// disables reuse). It is the session-facing entry point: a long-lived
// session passes each tuple's Artifacts across Explain calls so that only
// the stages invalidated by updates are recomputed.
func HybridAt(ctx context.Context, elin *circuit.Node, endo []db.FactID, epoch uint64, art *Artifacts, opts PipelineOptions, b ExplainBudget) (*HybridResult, error) {
	start := time.Now()
	budgeted := b.Enabled()
	var res *PipelineResult
	var err error
	if b.Mode != ModeApproximate {
		// The budget deadline is layered over the caller's context, like
		// ShapleyStage's stage deadline: when it fires we degrade, when the
		// caller's own context fires we abort.
		ectx := ctx
		if budgeted {
			if b.MaxNodes > 0 && (opts.CompileMaxNodes == 0 || b.MaxNodes < opts.CompileMaxNodes) {
				opts.CompileMaxNodes = b.MaxNodes
			}
			if b.Deadline > 0 {
				var cancel context.CancelFunc
				ectx, cancel = context.WithTimeout(ctx, b.Deadline)
				defer cancel()
			}
		}
		res, err = ExplainCircuitAt(ectx, elin, endo, epoch, art, opts)
		if err == nil {
			return &HybridResult{
				Method:  MethodExact,
				Values:  res.Values,
				Ranking: res.Values.Ranking(),
				Exact:   res,
				Elapsed: time.Since(start),
			}, nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
	}
	cause := degradeCause(b, err)
	if !budgeted {
		// The Tseytin CNF was already produced by the exact attempt (it
		// never times out: it is linear in the circuit).
		_, psp := trace.Start(ctx, "proxy")
		psp.Set("cause", cause)
		proxy := CNFProxy(res.CNF, endo)
		psp.End()
		return &HybridResult{
			Method:  MethodProxy,
			Proxy:   proxy,
			Ranking: proxy.Ranking(),
			Exact:   res,
			Elapsed: time.Since(start),
		}, nil
	}
	approx, err := approxStage(ctx, elin, endo, b, cause)
	if err != nil {
		return nil, err
	}
	return &HybridResult{
		Method:        MethodApprox,
		Approx:        approx,
		Ranking:       approx.Ranking(),
		Elapsed:       time.Since(start),
		DegradedCause: cause,
	}, nil
}
