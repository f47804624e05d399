package core

// Gradient-mode Algorithm 1: compute every fact's conditioned #SAT_k count
// difference from TWO passes over the circuit instead of 2n conditionings.
//
// View each node as carrying the polynomial V_m(z) = Σ_k #SAT_k(m)·z^k over
// its own variable support (the bottom-up #SAT_k dynamic program of
// Lemma 4.5, with ∧ ↦ polynomial product and ∨ ↦ sum after binomial padding
// of gap variables). The root polynomial R(z) is then, in the style of
// Darwiche's circuit differentiation, a multilinear function of the leaf
// polynomials: decomposability guarantees each certificate (proof tree)
// contains at most one literal of each variable, so R is linear in every
// literal leaf and the partial derivative D_ℓ(z) = ∂R/∂V_ℓ is well defined.
// A single top-down pass computes all of them:
//
//   - D_root = 1
//   - ∧-gate g, child c: D_c += D_g · Π_{siblings s} V_s
//   - ∨-gate g, child c: D_c += D_g · C(gap, ·)   (gap padding, as bottom-up)
//
// For a variable f with positive-literal leaf ℓ⁺ and negative-literal leaf
// ℓ⁻, D_{ℓ⁺}(z) enumerates exactly the root models that set f true through a
// literal occurrence, weighted by the Hamming weight of the OTHER variables —
// i.e. the conditioned count vector Γ_f up to the models in which f is a gap
// ("smoothing") variable somewhere along the certificate. Those gap models
// set f freely, so they contribute the SAME polynomial to Γ_f (f→true) and
// Δ_f (f→false) and cancel in the difference Algorithm 1 consumes:
//
//   Γ_f(z) − Δ_f(z) = D_{ℓ⁺}(z) − D_{ℓ⁻}(z)
//
// padded to the endogenous universe exactly as the per-fact path pads its
// conditioned counts. The total cost is O(|C|·n²) coefficient operations for
// ALL facts — an asymptotic factor-n improvement over the per-fact path's
// O(n·|C|·n²) — and both passes are level-synchronously parallel.
//
// The passes are written once over the arith vector operations. When the
// circuit support is at most maxFixedSupport they run on overflow-checked
// uint64 vectors carved from pointer-free chunks, so they allocate little
// and give the garbage collector nothing to scan; each worker keeps a
// sticky overflow flag that is checked after every level, and an overflow
// reruns both passes on big.Int. Only the literal-leaf derivatives are
// converted to big.Int; the universe padding and the big.Rat combination
// are exact on either path.

import (
	"context"
	"math/big"
	"sync"

	"repro/internal/db"
	"repro/internal/dnnf"
	"repro/internal/parallel"
)

// shapleyAllGradient computes the Shapley value of every endogenous fact via
// the two-pass gradient algorithm. It is exactly equivalent to the per-fact
// path (big.Rat-identical results); coefs must be ShapleyCoefficients(n).
// It also reports which arithmetic the passes ran on.
func shapleyAllGradient(ctx context.Context, c *dnnf.Node, endo []db.FactID, workers int, coefs []*big.Rat) (Values, arithKind, error) {
	support := len(c.Vars())
	if support == 0 {
		// Constant circuit: every fact is a null player.
		out := make(Values, len(endo))
		for _, f := range endo {
			out[f] = new(big.Rat)
		}
		return out, arithU64, ctx.Err()
	}
	kind := arithBig
	if support <= maxFixedSupport {
		kind = arithU64
	}
	lits, overflow, err := gradientDerivs(ctx, c, workers, kind == arithU64)
	if err == nil && overflow {
		kind = arithOverflow
		lits, _, err = gradientDerivs(ctx, c, workers, false)
	}
	if err != nil {
		return nil, kind, err
	}
	vals, err := gradientValues(ctx, lits, endo, support, workers, coefs)
	return vals, kind, err
}

// litDerivs holds the summed root derivative of every literal leaf: pos[v]
// for the leaves v and neg[v] for the leaves ¬v.
type litDerivs struct{ pos, neg map[int][]*big.Int }

// gradientDerivs runs both passes of the gradient DP over c and harvests
// the literal-leaf derivatives as big.Ints. fixed selects the uint64
// arithmetic, which reports overflow (with zero-value lits) instead of
// returning wrapped values; otherwise the passes run on big.Int.
func gradientDerivs(ctx context.Context, c *dnnf.Node, workers int, fixed bool) (litDerivs, bool, error) {
	order, maxID := flattenDNNF(c)
	levels := levelize(order, maxID)
	workers = parallel.Workers(workers)
	if fixed {
		return runGradient(ctx, c, order, levels, maxID, u64Ariths(workers))
	}
	return runGradient(ctx, c, order, levels, maxID, bigAriths(workers))
}

// runGradient is the two passes and the harvest on one arithmetic, with
// ars[w] owned by worker w.
func runGradient[E any](ctx context.Context, c *dnnf.Node, order []*dnnf.Node, levels [][]*dnnf.Node, maxID int, ars []arith[E]) (litDerivs, bool, error) {
	// Pass 1 (bottom-up): per-node #SAT_k vectors over each node's own
	// support, deepest level first so every child is ready before its
	// parents. Nodes within a level are independent.
	// Each pass builds its closure once and points it at the current level.
	counts := make([][]E, maxID+1)
	var nodes []*dnnf.Node
	up := func(w, i int) error {
		m := nodes[i]
		counts[m.ID()] = satkNode(ars[w], m, counts)
		return nil
	}
	for l := len(levels) - 1; l >= 0; l-- {
		nodes = levels[l]
		if err := parallel.ForEach(ctx, len(nodes), len(ars), up); err != nil {
			return litDerivs{}, false, err
		}
		if anyOverflow(ars) {
			return litDerivs{}, true, nil
		}
	}

	// Pass 2 (top-down): derivative vectors, root level first so every
	// node's derivative is final before it propagates to its children. Two
	// same-level nodes may share a child, so accumulation into a child is
	// guarded by a per-node mutex; the arithmetic is exact (or reports
	// overflow), so the accumulation order cannot change the result.
	deriv := make([][]E, maxID+1)
	locks := make([]sync.Mutex, maxID+1)
	deriv[c.ID()] = ars[0].unit(1, 0)
	down := func(w, i int) error {
		propagateDeriv(ars[w], nodes[i], counts, deriv, locks)
		return nil
	}
	for l := 0; l < len(levels); l++ {
		nodes = levels[l]
		if err := parallel.ForEach(ctx, len(nodes), len(ars), down); err != nil {
			return litDerivs{}, false, err
		}
		if anyOverflow(ars) {
			return litDerivs{}, true, nil
		}
	}

	// Harvest per-literal derivatives. Builders hash-cons literals, so each
	// literal normally has one leaf; summing keeps this robust either way.
	lits := litDerivs{pos: make(map[int][]*big.Int), neg: make(map[int][]*big.Int)}
	for _, m := range order {
		if m.Kind != dnnf.KindLit || deriv[m.ID()] == nil {
			continue
		}
		d := ars[0].toBig(deriv[m.ID()])
		if m.Lit > 0 {
			lits.pos[m.Lit] = addLitDeriv(lits.pos[m.Lit], d)
		} else {
			lits.neg[-m.Lit] = addLitDeriv(lits.neg[-m.Lit], d)
		}
	}
	return lits, false, nil
}

// gradientValues turns literal derivatives into Shapley values:
// Γ_f − Δ_f = D_{ℓ⁺} − D_{ℓ⁻}, padded from the circuit support to the
// endogenous universe (facts outside the support pad both conditioned
// vectors identically, so the padded difference is the difference padded).
func gradientValues(ctx context.Context, lits litDerivs, endo []db.FactID, support, workers int, coefs []*big.Rat) (Values, error) {
	n := len(endo)
	pad := n - support
	if pad < 0 {
		// Mirror the per-fact path, which panics in PadToUniverse when the
		// circuit mentions variables outside the endogenous universe.
		panic("core: negative universe gap")
	}
	vals := make([]*big.Rat, n)
	err := parallel.ForEach(ctx, n, workers, func(_, i int) error {
		f := int(endo[i])
		p, q := lits.pos[f], lits.neg[f]
		if p == nil && q == nil {
			vals[i] = new(big.Rat) // null player (outside the support)
			return nil
		}
		diff := subCounts(p, q, support)
		if pad > 0 {
			diff = convolve[*big.Int](bigArith{}, diff, binomialRow(pad))
		}
		vals[i] = weightedDiff(diff, coefs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(Values, n)
	for i, f := range endo {
		out[f] = vals[i]
	}
	return out, nil
}

// levelize partitions the DAG into root-distance levels: level(root) = 0 and
// level(c) = 1 + max over parents. Every edge goes from a strictly smaller
// to a strictly larger level, so processing levels in ascending order is a
// valid top-down schedule and descending order a valid bottom-up one, with
// full independence inside each level. order must be topological (children
// before parents), as returned by flattenDNNF.
func levelize(order []*dnnf.Node, maxID int) [][]*dnnf.Node {
	level := make([]int, maxID+1)
	// Reversed topological order visits every parent before its children,
	// so each node's level is final when its out-edges are relaxed.
	maxLevel := 0
	for i := len(order) - 1; i >= 0; i-- {
		m := order[i]
		lm := level[m.ID()]
		for _, c := range m.Children {
			if level[c.ID()] < lm+1 {
				level[c.ID()] = lm + 1
				if lm+1 > maxLevel {
					maxLevel = lm + 1
				}
			}
		}
	}
	// Carve every level from one backing array, sized by a counting pass.
	start := make([]int, maxLevel+2)
	for _, m := range order {
		start[level[m.ID()]+1]++
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	backing := make([]*dnnf.Node, len(order))
	levels := make([][]*dnnf.Node, maxLevel+1)
	for l := range levels {
		levels[l] = backing[start[l]:start[l]:start[l+1]]
	}
	for _, m := range order {
		l := level[m.ID()]
		levels[l] = append(levels[l], m)
	}
	return levels
}

// propagateDeriv pushes a node's finalized derivative to its children.
//
// For an ∧-gate the contribution to child i is D_g convolved with the count
// vectors of all siblings; prefix/suffix products make that one convolution
// per child instead of a quadratic sweep. For an ∨-gate the contribution is
// D_g padded by the child's gap-variable binomial row, mirroring the
// bottom-up smoothing.
func propagateDeriv[E any](ar arith[E], g *dnnf.Node, counts, deriv [][]E, locks []sync.Mutex) {
	dg := deriv[g.ID()]
	if dg == nil || len(g.Children) == 0 {
		return
	}
	switch g.Kind {
	case dnnf.KindAnd:
		k := len(g.Children)
		// pref[i] = D_g ⊛ V_0 ⊛ … ⊛ V_{i−1}; most gates are small enough
		// for the stack.
		var small [4][]E
		pref := small[:0]
		if k > len(small) {
			pref = make([][]E, 0, k)
		}
		pref = pref[:k]
		pref[0] = dg
		for i := 1; i < k; i++ {
			pref[i] = convolve(ar, pref[i-1], counts[g.Children[i-1].ID()])
		}
		// Walk right-to-left maintaining the suffix product V_{i+1} ⊛ … so
		// child i receives pref[i] ⊛ suffix.
		var suf []E
		for i := k - 1; i >= 0; i-- {
			contrib := pref[i]
			owned := i >= 1 // pref[i≥1] is a fresh convolve output
			if suf != nil {
				contrib = convolve(ar, pref[i], suf)
				owned = true
			}
			addDeriv(ar, g.Children[i], contrib, owned, deriv, locks)
			if i > 0 {
				cv := counts[g.Children[i].ID()]
				if suf == nil {
					suf = cv
				} else {
					suf = convolve(ar, suf, cv)
				}
			}
		}
	case dnnf.KindOr:
		for _, ch := range g.Children {
			gap := len(g.Vars()) - len(ch.Vars())
			if gap > 0 {
				addDeriv(ar, ch, convolve(ar, dg, ar.binomial(gap)), true, deriv, locks)
			} else {
				addDeriv(ar, ch, dg, false, deriv, locks)
			}
		}
	}
}

// addDeriv accumulates a parent's contribution into a child's derivative
// under the child's lock. owned marks vectors the caller will never reuse,
// which may be adopted directly as the accumulator or else are released;
// shared vectors are copied first. All contributions to one child have
// identical length (|support(root)| − |support(child)| + 1).
func addDeriv[E any](ar arith[E], c *dnnf.Node, vec []E, owned bool, deriv [][]E, locks []sync.Mutex) {
	id := c.ID()
	locks[id].Lock()
	defer locks[id].Unlock()
	cur := deriv[id]
	if cur == nil {
		if !owned {
			vec = ar.clone(vec)
		}
		deriv[id] = vec
		return
	}
	ar.add(cur, vec)
	if owned {
		ar.release(vec)
	}
}

// addLitDeriv merges derivative vectors of leaves carrying the same literal.
// With hash-consed builders the second case never triggers; it is kept for
// robustness against externally constructed circuits.
func addLitDeriv(dst, d []*big.Int) []*big.Int {
	if dst == nil {
		return d
	}
	sum := copyCounts(dst)
	for i, di := range d {
		sum[i].Add(sum[i], di)
	}
	return sum
}

// subCounts returns p − q as a fresh vector of the given length, treating a
// nil operand as all-zero.
func subCounts(p, q []*big.Int, size int) []*big.Int {
	out := zeros(size)
	for i := 0; i < size; i++ {
		if p != nil && i < len(p) {
			out[i].Set(p[i])
		}
		if q != nil && i < len(q) {
			out[i].Sub(out[i], q[i])
		}
	}
	return out
}

// weightedDiff evaluates Σ_k coefs[k]·diff[k] as an exact rational — the
// gradient-mode sibling of weightedDifference, which receives Γ−Δ already
// formed.
func weightedDiff(diff []*big.Int, coefs []*big.Rat) *big.Rat {
	total := new(big.Rat)
	var term big.Rat
	for k := 0; k < len(coefs) && k < len(diff); k++ {
		if diff[k].Sign() == 0 {
			continue
		}
		term.SetInt(diff[k])
		term.Mul(&term, coefs[k])
		total.Add(total, &term)
	}
	return total
}
