package core

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/db"
	"repro/internal/dnnf"
	"repro/internal/trace"
)

// gradientWithKernel runs the gradient strategy on the chosen arithmetic
// alone, with no fallback: fixed selects uint64, which must not overflow.
func gradientWithKernel(t testing.TB, c *dnnf.Node, endo []db.FactID, workers int, fixed bool) Values {
	t.Helper()
	lits, overflow, err := gradientDerivs(context.Background(), c, workers, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if overflow {
		t.Fatalf("fixed=%v kernel overflowed on a %d-variable support", fixed, len(c.Vars()))
	}
	vals, err := gradientValues(context.Background(), lits, endo, len(c.Vars()), workers, shapleyCoefficients(len(endo)))
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// countsIdentical asserts two big.Int count vectors are equal entry by
// entry.
func countsIdentical(t testing.TB, got, want []*big.Int, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for k := range want {
		if got[k].Cmp(want[k]) != 0 {
			t.Fatalf("%s: [%d] = %v, want %v", what, k, got[k], want[k])
		}
	}
}

// litDerivsIdentical asserts two harvests carry the same literal
// derivatives.
func litDerivsIdentical(t testing.TB, got, want litDerivs, what string) {
	t.Helper()
	for _, side := range []struct {
		name      string
		got, want map[int][]*big.Int
	}{{"pos", got.pos, want.pos}, {"neg", got.neg, want.neg}} {
		if len(side.got) != len(side.want) {
			t.Fatalf("%s: %d %s literals, want %d", what, len(side.got), side.name, len(side.want))
		}
		for v, w := range side.want {
			countsIdentical(t, side.got[v], w, fmt.Sprintf("%s: %s literal %d", what, side.name, v))
		}
	}
}

// TestPascalMatchesBinomialRow: the lock-free fixed-width rows equal the
// big.Int rows for every n they cover.
func TestPascalMatchesBinomialRow(t *testing.T) {
	for n := range pascal {
		want := binomialRow(n)
		for k, v := range pascal[n] {
			if new(big.Int).SetUint64(v).Cmp(want[k]) != 0 {
				t.Fatalf("pascal[%d][%d] = %d, want %v", n, k, v, want[k])
			}
		}
	}
}

// TestFixedWidthReportsOverflow runs the fixed-width passes directly on a
// threshold circuit whose counts exceed a word (C(70,35) > 2^64): overflow
// must be reported, and no wrapped vector returned.
func TestFixedWidthReportsOverflow(t *testing.T) {
	b := dnnf.NewBuilder()
	c := thresholdTestDNNF(b, 70, 35)
	if counts, ok := satkVector[uint64](&u64Arith{}, c); ok || counts != nil {
		t.Fatalf("fixed-width #SAT_k on support 70: ok=%v, counts=%v; want overflow and nil", ok, counts)
	}
	for _, workers := range []int{1, 4} {
		lits, overflow, err := gradientDerivs(context.Background(), c, workers, true)
		if err != nil {
			t.Fatal(err)
		}
		if !overflow || lits.pos != nil || lits.neg != nil {
			t.Fatalf("workers=%d: fixed-width gradient on support 70: overflow=%v, lits=%v; want overflow and none",
				workers, overflow, lits)
		}
	}
	// The dispatcher never tries a support this wide on words.
	if _, kind := allSATk(c); kind != arithBig {
		t.Fatalf("allSATk kind = %v, want arithBig", kind)
	}
}

// TestFixedWidthOverflowFallsBackToBig drives the fallback through the
// dispatchers: a chain of ∨-gates over duplicate children (not
// deterministic, so counts double per gate) has a one-variable support but
// count 2^64, which overflows the word; the result must be the exact
// big.Int one and the span must say the fixed-width attempt fell back.
func TestFixedWidthOverflowFallsBackToBig(t *testing.T) {
	b := dnnf.NewBuilder()
	c := b.Lit(1)
	for i := 0; i < 64; i++ {
		c = b.Or(c, c)
	}
	want := []*big.Int{new(big.Int), new(big.Int).Lsh(big.NewInt(1), 64)}
	counts, kind := allSATk(c)
	if kind != arithOverflow {
		t.Fatalf("allSATk kind = %v, want arithOverflow", kind)
	}
	countsIdentical(t, counts, want, "#SAT_k after fallback")
	countsIdentical(t, ComputeAllSATk(c), want, "ComputeAllSATk")

	ctx, root := trace.NewRoot(context.Background(), "test", nil)
	vals, err := ShapleyAllStrategy(ctx, c, factRange(1), 2, StrategyGradient)
	if err != nil {
		t.Fatal(err)
	}
	valuesIdentical(t, vals, gradientWithKernel(t, c, factRange(1), 1, false), "fallback vs big.Int kernel")
	attrs := root.Snapshot().Attrs
	if attrs["arith"] != "big" || attrs["overflow"] != true {
		t.Fatalf("span attrs = %v, want arith=big overflow=true", attrs)
	}
}

// TestFixedWidthSupportBoundary: on threshold circuits at supports around
// the word bound, ShapleyAllStrategy (uint64 at 62 and 63, big.Int at 64 and
// 70) is big.Rat-identical to the big.Int kernel and to the per-fact
// strategy, and every fact gets 1/n by symmetry and efficiency.
func TestFixedWidthSupportBoundary(t *testing.T) {
	for _, n := range []int{62, 63, 64, 70} {
		b := dnnf.NewBuilder()
		c := thresholdTestDNNF(b, n, n/2)
		endo := factRange(n)
		ctx, root := trace.NewRoot(context.Background(), "test", nil)
		got, err := ShapleyAllStrategy(ctx, c, endo, 2, StrategyGradient)
		if err != nil {
			t.Fatal(err)
		}
		wantArith := "u64"
		if n > maxFixedSupport {
			wantArith = "big"
		}
		if a := root.Snapshot().Attrs["arith"]; a != wantArith {
			t.Errorf("n=%d: arith = %v, want %s", n, a, wantArith)
		}
		what := fmt.Sprintf("n=%d", n)
		valuesIdentical(t, got, gradientWithKernel(t, c, endo, 2, false), what+": dispatched vs big.Int kernel")
		for _, f := range endo {
			ratEq(t, got[f], 1, int64(n), what+": threshold Shapley value")
		}
		// All facts are symmetric; running the per-fact strategy on the
		// first and last fact only keeps the test fast at these sizes.
		for _, f := range []db.FactID{endo[0], endo[n-1]} {
			if pf := ShapleyOfFact(c, endo, f); pf.Cmp(got[f]) != 0 {
				t.Fatalf("%s: fact %d: gradient %v, per-fact %v", what, f, got[f], pf)
			}
		}
	}
}

// TestGradientKernelsAgreeRandom is the differential test of the two
// arithmetics: random compiled circuits with negative literals, both
// kernels at 1, 2, 4 and 8 workers, big.Rat-identical to each other, to the
// per-fact strategy and to 2^n enumeration.
func TestGradientKernelsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 40; trial++ {
		f := randomTestCNF(rng, 3+rng.Intn(6), 2+rng.Intn(8))
		c, _, err := dnnf.Compile(context.Background(), f, dnnf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		endo := factRange(f.MaxVar + rng.Intn(3))
		want, err := ShapleyAllStrategy(context.Background(), c, endo, 1, StrategyPerFact)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NaiveShapley(func(subset map[db.FactID]bool) bool {
			assign := make(map[int]bool, len(subset))
			for id, in := range subset {
				assign[int(id)] = in
			}
			return f.Eval(assign)
		}, endo)
		if err != nil {
			t.Fatal(err)
		}
		valuesIdentical(t, want, naive, fmt.Sprintf("trial %d: per-fact vs naive", trial))
		for _, workers := range []int{1, 2, 4, 8} {
			for _, fixed := range []bool{true, false} {
				got := gradientWithKernel(t, c, endo, workers, fixed)
				valuesIdentical(t, got, want, fmt.Sprintf("trial %d workers=%d fixed=%v vs per-fact", trial, workers, fixed))
			}
		}
	}
}

// TestFixedWidthGradientAllocs is the allocation gate: on the n=28
// threshold circuit, the fixed-width passes allocate at most a tenth of
// what the big.Int passes allocate. It fails if the word kernel's hot loop
// regresses to per-coefficient allocations.
func TestFixedWidthGradientAllocs(t *testing.T) {
	b := dnnf.NewBuilder()
	c := thresholdTestDNNF(b, 28, 14)
	allocs := func(fixed bool) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, overflow, err := gradientDerivs(context.Background(), c, 1, fixed); err != nil || overflow {
				t.Fatalf("fixed=%v: overflow=%v err=%v", fixed, overflow, err)
			}
		})
	}
	fixed, wide := allocs(true), allocs(false)
	t.Logf("gradient passes on n=28: uint64 %.0f allocs, big.Int %.0f allocs", fixed, wide)
	if fixed*10 > wide {
		t.Fatalf("uint64 passes allocate %.0f, more than a tenth of big.Int's %.0f", fixed, wide)
	}
}

// BenchmarkCountKernels compares the fixed-width and big.Int kernels of the
// #SAT_k and gradient dynamic programs on the same threshold circuits,
// serially. Both are exact; the setup asserts identical vectors.
func BenchmarkCountKernels(b *testing.B) {
	for _, n := range []int{28, 48} {
		c := thresholdTestDNNF(dnnf.NewBuilder(), n, n/2)
		fixedCounts, ok := satkVector[uint64](&u64Arith{}, c)
		if !ok {
			b.Fatalf("n=%d: fixed-width #SAT_k overflowed", n)
		}
		bigCounts, _ := satkVector[*big.Int](bigArith{}, c)
		countsIdentical(b, fixedCounts, bigCounts, "#SAT_k uint64 vs big.Int")
		fixedLits, overflow, err := gradientDerivs(context.Background(), c, 1, true)
		if err != nil || overflow {
			b.Fatalf("n=%d: fixed-width gradient: overflow=%v err=%v", n, overflow, err)
		}
		bigLits, _, err := gradientDerivs(context.Background(), c, 1, false)
		if err != nil {
			b.Fatal(err)
		}
		litDerivsIdentical(b, fixedLits, bigLits, "gradient uint64 vs big.Int")

		for _, arith := range []string{"u64", "big"} {
			fixed := arith == "u64"
			b.Run(fmt.Sprintf("satk/n=%d/arith=%s", n, arith), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if fixed {
						satkVector[uint64](&u64Arith{}, c)
					} else {
						satkVector[*big.Int](bigArith{}, c)
					}
				}
			})
			b.Run(fmt.Sprintf("gradient/n=%d/arith=%s", n, arith), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, _, err := gradientDerivs(context.Background(), c, 1, fixed); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
