// Package core implements the paper's primary contribution: exact Shapley
// value computation for database facts from deterministic and decomposable
// circuits (Algorithm 1, via the #SAT_k dynamic program of Lemma 4.5), the
// CNF Proxy heuristic (Algorithm 2 / Lemma 5.2), naive ground-truth
// computation for testing, the end-to-end pipeline of Figure 3, and the
// hybrid exact-with-timeout strategy of Section 6.3.
package core

import (
	"math/big"
	"math/bits"
	"sync"

	"repro/internal/dnnf"
	"repro/internal/trace"
)

// flattenDNNF returns the nodes reachable from n in topological order
// (children before parents) together with the largest node ID, so dynamic
// programs over the DAG can use dense slices instead of maps and plain loops
// instead of recursion.
func flattenDNNF(n *dnnf.Node) (order []*dnnf.Node, maxID int) {
	dnnf.Visit(n, func(m *dnnf.Node) {
		order = append(order, m)
		if m.ID() > maxID {
			maxID = m.ID()
		}
	})
	return order, maxID
}

// ComputeAllSATk computes #SAT_0(C), ..., #SAT_n(C) for the d-DNNF rooted at
// n, counted over the node's own variable support (Lemma 4.5). The returned
// slice has length len(n.Vars())+1; entry ℓ is the number of satisfying
// assignments of Hamming weight ℓ. The computation is a bottom-up dynamic
// program, linear in the circuit size times the support size squared:
//
//   - literal v: [0, 1]; literal ¬v: [1, 0]
//   - ∧ (decomposable): convolution of the children's count vectors
//   - ∨ (deterministic): sum of children vectors, each first convolved with
//     the binomial row of its gap variables (Vars(g) \ Vars(child))
//
// Constants have empty support: true ↦ [1], false ↦ [0]. Memos are kept in a
// dense slice indexed by node ID (builder IDs are contiguous). For supports
// of at most maxFixedSupport variables the program runs on overflow-checked
// uint64 vectors and converts the root's vector; otherwise, or if a word ever
// overflows, it runs on big.Int. Both give the identical exact result.
func ComputeAllSATk(n *dnnf.Node) []*big.Int {
	counts, _ := allSATk(n)
	return counts
}

// allSATk is ComputeAllSATk that also reports which arithmetic produced the
// result.
func allSATk(n *dnnf.Node) ([]*big.Int, arithKind) {
	kind := arithBig
	if len(n.Vars()) <= maxFixedSupport {
		if counts, ok := satkVector[uint64](&u64Arith{}, n); ok {
			return counts, arithU64
		}
		kind = arithOverflow
	}
	counts, _ := satkVector[*big.Int](bigArith{}, n)
	return counts, kind
}

// satkVector runs the bottom-up #SAT_k program on ar's arithmetic and
// returns the root's vector as big.Ints. ok is false, and the vector nil,
// when ar overflowed.
func satkVector[E any](ar arith[E], n *dnnf.Node) (counts []*big.Int, ok bool) {
	order, maxID := flattenDNNF(n)
	memo := make([][]E, maxID+1)
	for _, m := range order {
		memo[m.ID()] = satkNode(ar, m, memo)
	}
	if ar.overflowed() {
		return nil, false
	}
	return ar.toBig(memo[n.ID()]), true
}

// satkNode computes one node's #SAT_k vector from its children's memoized
// vectors. The returned slice is freshly owned by the caller except that it
// never aliases a child's memo entry.
func satkNode[E any](ar arith[E], m *dnnf.Node, memo [][]E) []E {
	switch m.Kind {
	case dnnf.KindTrue:
		return ar.unit(1, 0)
	case dnnf.KindFalse:
		return ar.zeros(1)
	case dnnf.KindLit:
		if m.Lit > 0 {
			return ar.unit(2, 1)
		}
		return ar.unit(2, 0)
	case dnnf.KindAnd:
		switch len(m.Children) {
		case 0:
			return ar.unit(1, 0)
		case 1:
			return ar.clone(memo[m.Children[0].ID()])
		}
		v := convolve(ar, memo[m.Children[0].ID()], memo[m.Children[1].ID()])
		for _, c := range m.Children[2:] {
			v = convolve(ar, v, memo[c.ID()])
		}
		return v
	default: // dnnf.KindOr
		var v []E
		for _, c := range m.Children {
			child := memo[c.ID()]
			gap := len(m.Vars()) - len(c.Vars())
			switch {
			case v == nil && gap == 0:
				// The first child's vector seeds the accumulator; copy so
				// the memo entry is never mutated.
				v = ar.clone(child)
			case v == nil:
				v = convolve(ar, child, ar.binomial(gap))
			case gap == 0:
				ar.add(v, child)
			default:
				// Accumulate the gap-padded child directly into v instead of
				// materializing a padded temporary.
				ar.addConvolve(v, child, ar.binomial(gap))
			}
		}
		if v == nil {
			v = ar.zeros(len(m.Vars()) + 1)
		}
		return v
	}
}

// PadToUniverse extends a #SAT_k vector counted over some support to a
// universe with `extra` additional unconstrained variables: each additional
// variable may be freely present or absent, so the vector is convolved with
// the binomial row C(extra, ·). This implements the circuit-completion step
// of Algorithm 1 (conjoining with (f' ∨ ¬f') for missing facts f') without
// materializing the completed circuit.
func PadToUniverse(counts []*big.Int, extra int) []*big.Int {
	if extra == 0 {
		return counts
	}
	if extra < 0 {
		panic("core: negative universe gap")
	}
	return convolve[*big.Int](bigArith{}, counts, binomialRow(extra))
}

// convolve returns the coefficient-wise product of two count vectors:
// out[ℓ] = Σ_i a[i]·b[ℓ-i]. It corresponds to counting joint assignments of
// two variable-disjoint parts by total Hamming weight.
func convolve[E any](ar arith[E], a, b []E) []E {
	out := ar.zeros(len(a) + len(b) - 1)
	ar.addConvolve(out, a, b)
	return out
}

// maxFixedSupport is the largest circuit support the DPs run on uint64
// vectors. Model counts over that many variables fit in a word, so overflow
// is not expected there; every operation is still checked, and a run that
// trips a check is redone on big.Int, so correctness never rests on the
// bound.
const maxFixedSupport = 63

// arith is the vector arithmetic the #SAT_k and gradient dynamic programs
// are written over, so each traversal exists once: u64Arith runs on machine
// words and records overflow, bigArith is exact at any size. Vectors passed
// in are never retained or modified, except dst of add and addConvolve and
// the dead vector given to release; returned vectors are freshly owned
// except binomial rows, which are shared.
type arith[E any] interface {
	zeros(n int) []E
	// unit returns a length-n vector that is 1 at index k and 0 elsewhere.
	unit(n, k int) []E
	clone(v []E) []E
	// add accumulates dst[i] += src[i]; len(dst) ≥ len(src).
	add(dst, src []E)
	// addConvolve accumulates dst[i+j] += a[i]·b[j]; len(dst) must be at
	// least len(a)+len(b)-1.
	addConvolve(dst, a, b []E)
	// release marks v, a vector this arithmetic returned, as dead; its
	// storage may be reused.
	release(v []E)
	// binomial returns [C(n,0), ..., C(n,n)], shared and read-only.
	binomial(n int) []E
	toBig(v []E) []*big.Int
	// overflowed reports whether any operation so far lost bits. Its
	// results since then are garbage and must be discarded.
	overflowed() bool
}

// arithKind records which arithmetic a Shapley computation ran on; it
// orders from cheapest to most expensive, so the kind of a computation made
// of several DP runs is the maximum of theirs.
type arithKind uint8

const (
	arithU64 arithKind = iota
	arithBig
	// arithOverflow: a uint64 run overflowed and was redone on big.Int.
	arithOverflow
)

// annotate records the kind on a trace span: arith is "u64" or "big", and
// overflow is set when a fixed-width attempt fell back.
func (k arithKind) annotate(sp *trace.Span) {
	if k == arithU64 {
		sp.Set("arith", "u64")
		return
	}
	sp.Set("arith", "big")
	if k == arithOverflow {
		sp.Set("overflow", true)
	}
}

// u64Arith is the fixed-width arithmetic. Every multiply-add is checked
// with math/bits; a lost bit sets the sticky overflow flag instead of
// failing the operation, so callers check it once per level or pass.
// Vectors are carved from pointer-free chunks that grow geometrically up to
// maxChunkWords, so a pass makes a handful of allocations rather than one
// per vector, and the garbage collector has nothing in them to scan; a
// chunk lives as long as any vector in it. Not safe for concurrent use:
// parallel passes give each worker its own.
type u64Arith struct {
	overflow bool
	chunk    []uint64 // current chunk; chunk[used:] is still free
	used     int
}

const maxChunkWords = 1 << 14

func (a *u64Arith) zeros(n int) []uint64 {
	if n > len(a.chunk)-a.used {
		a.chunk = make([]uint64, max(min(2*len(a.chunk), maxChunkWords), 64, n))
		a.used = 0
	}
	v := a.chunk[a.used : a.used+n : a.used+n]
	a.used += n
	return v
}

// release hands back the vector most recently carved, once it is dead, so
// the next one reuses its words; any other vector is left to its chunk.
func (a *u64Arith) release(v []uint64) {
	if n := len(v); n > 0 && n <= a.used && &a.chunk[a.used-n] == &v[0] {
		clear(v)
		a.used -= n
	}
}

func (a *u64Arith) unit(n, k int) []uint64 {
	v := a.zeros(n)
	v[k] = 1
	return v
}

func (a *u64Arith) clone(v []uint64) []uint64 {
	out := a.zeros(len(v))
	copy(out, v)
	return out
}

func (a *u64Arith) add(dst, src []uint64) {
	var carry, lost uint64
	for i, s := range src {
		dst[i], carry = bits.Add64(dst[i], s, 0)
		lost |= carry
	}
	if lost != 0 {
		a.overflow = true
	}
}

func (a *u64Arith) addConvolve(dst, x, y []uint64) {
	var lost uint64
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		d := dst[i : i+len(y)]
		for j, yj := range y {
			hi, lo := bits.Mul64(xi, yj)
			var carry uint64
			d[j], carry = bits.Add64(d[j], lo, 0)
			lost |= hi | carry
		}
	}
	if lost != 0 {
		a.overflow = true
	}
}

func (a *u64Arith) binomial(n int) []uint64 {
	if n < len(pascal) {
		return pascal[n]
	}
	// Rows past maxFixedSupport can exceed a word; only a support too wide
	// for this arithmetic needs them.
	a.overflow = true
	return a.zeros(n + 1)
}

func (*u64Arith) toBig(v []uint64) []*big.Int {
	out := zeros(len(v))
	for i, x := range v {
		out[i].SetUint64(x)
	}
	return out
}

func (a *u64Arith) overflowed() bool { return a.overflow }

// pascal holds the binomial rows 0..maxFixedSupport, built once at package
// initialization and then only read, so parallel passes pad gaps without
// locking.
var pascal = func() [maxFixedSupport + 1][]uint64 {
	var rows [maxFixedSupport + 1][]uint64
	rows[0] = []uint64{1}
	for n := 1; n < len(rows); n++ {
		rows[n] = make([]uint64, n+1)
		rows[n][0], rows[n][n] = 1, 1
		for k := 1; k < n; k++ {
			rows[n][k] = rows[n-1][k-1] + rows[n-1][k]
		}
	}
	return rows
}()

// u64Ariths returns one fixed-width arithmetic per worker, so each keeps
// its own sticky flag.
func u64Ariths(workers int) []arith[uint64] {
	us := make([]u64Arith, workers)
	ars := make([]arith[uint64], workers)
	for i := range us {
		ars[i] = &us[i]
	}
	return ars
}

// bigAriths returns workers handles on the stateless big.Int arithmetic.
func bigAriths(workers int) []arith[*big.Int] {
	ars := make([]arith[*big.Int], workers)
	for i := range ars {
		ars[i] = bigArith{}
	}
	return ars
}

// anyOverflow reports whether any worker's arithmetic overflowed.
func anyOverflow[E any](ars []arith[E]) bool {
	for _, ar := range ars {
		if ar.overflowed() {
			return true
		}
	}
	return false
}

// bigArith is the exact big.Int arithmetic: the fallback for supports wider
// than maxFixedSupport and for any fixed-width run that overflowed.
type bigArith struct{}

func (bigArith) zeros(n int) []*big.Int { return zeros(n) }

func (bigArith) unit(n, k int) []*big.Int {
	v := zeros(n)
	v[k].SetInt64(1)
	return v
}

func (bigArith) clone(v []*big.Int) []*big.Int { return copyCounts(v) }

func (bigArith) add(dst, src []*big.Int) {
	for i, s := range src {
		if s.Sign() != 0 {
			dst[i].Add(dst[i], s)
		}
	}
}

func (bigArith) addConvolve(dst, a, b []*big.Int) {
	var t big.Int
	for i, ai := range a {
		if ai.Sign() == 0 {
			continue
		}
		for j, bj := range b {
			if bj.Sign() == 0 {
				continue
			}
			t.Mul(ai, bj)
			dst[i+j].Add(dst[i+j], &t)
		}
	}
}

func (bigArith) release([]*big.Int) {}

func (bigArith) binomial(n int) []*big.Int { return binomialRow(n) }

func (bigArith) toBig(v []*big.Int) []*big.Int { return v }

func (bigArith) overflowed() bool { return false }

// binomialCache memoizes big.Int binomial rows across calls for universe
// padding and for ∨-gate gaps on the big.Int path. Rows are shared and must
// be treated as read-only by callers.
var binomialCache struct {
	sync.Mutex
	rows map[int][]*big.Int
}

// binomialRow returns [C(n,0), C(n,1), ..., C(n,n)]. The returned slice is
// shared across calls; callers must not modify it or its entries.
func binomialRow(n int) []*big.Int {
	binomialCache.Lock()
	defer binomialCache.Unlock()
	if row, ok := binomialCache.rows[n]; ok {
		return row
	}
	row := make([]*big.Int, n+1)
	row[0] = big.NewInt(1)
	for k := 1; k <= n; k++ {
		// C(n,k) = C(n,k-1) · (n-k+1) / k
		row[k] = new(big.Int).Mul(row[k-1], big.NewInt(int64(n-k+1)))
		row[k].Quo(row[k], big.NewInt(int64(k)))
	}
	if binomialCache.rows == nil {
		binomialCache.rows = make(map[int][]*big.Int)
	}
	binomialCache.rows[n] = row
	return row
}

// zeros returns a vector of n zero big.Ints backed by a single allocation.
func zeros(n int) []*big.Int {
	vals := make([]big.Int, n)
	out := make([]*big.Int, n)
	for i := range vals {
		out[i] = &vals[i]
	}
	return out
}

// copyCounts returns a freshly owned deep copy of a count vector.
func copyCounts(src []*big.Int) []*big.Int {
	vals := make([]big.Int, len(src))
	out := make([]*big.Int, len(src))
	for i, s := range src {
		vals[i].Set(s)
		out[i] = &vals[i]
	}
	return out
}
