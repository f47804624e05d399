package core

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/db"
	"repro/internal/dnnf"
	"repro/internal/engine"
	"repro/internal/flights"
)

func ratEq(t *testing.T, got *big.Rat, num, den int64, what string) {
	t.Helper()
	want := big.NewRat(num, den)
	if got.Cmp(want) != 0 {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

func TestShapleyCoefficients(t *testing.T) {
	// coef[k] = k!(n-k-1)!/n! = 1/(n·C(n-1,k)); the weighted binomial sum
	// telescopes to 1.
	for n := 1; n <= 12; n++ {
		coefs := ShapleyCoefficients(n)
		sum := new(big.Rat)
		for k := 0; k < n; k++ {
			c := new(big.Int).Binomial(int64(n-1), int64(k))
			term := new(big.Rat).SetInt(c)
			term.Mul(term, coefs[k])
			sum.Add(sum, term)
		}
		if sum.Cmp(big.NewRat(1, 1)) != 0 {
			t.Errorf("n=%d: Σ coef[k]·C(n-1,k) = %v, want 1", n, sum)
		}
	}
	coefs := ShapleyCoefficients(2)
	ratEq(t, coefs[0], 1, 2, "coef[0] for n=2")
	ratEq(t, coefs[1], 1, 2, "coef[1] for n=2")
}

// flightsELin evaluates the paper's running example end to end and returns
// the endogenous lineage circuit and the endogenous fact IDs.
func flightsELin(t *testing.T) (*circuit.Node, []db.FactID, *flights.Facts) {
	t.Helper()
	d, fs := flights.Build()
	q := flights.Query()
	cb := circuit.NewBuilder()
	elin, err := engine.EvalBoolean(d, q, cb, engine.Options{Mode: engine.ModeEndogenous})
	if err != nil {
		t.Fatal(err)
	}
	endo := make([]db.FactID, 0, 8)
	for _, f := range d.EndogenousFacts() {
		endo = append(endo, f.ID)
	}
	return elin, endo, fs
}

// TestFlightsExactValues checks the paper's Example 2.1 values through the
// full pipeline: engine lineage → Tseytin → compile → Lemma 4.6 →
// Algorithm 1.
func TestFlightsExactValues(t *testing.T) {
	elin, endo, fs := flightsELin(t)
	res, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Values
	ratEq(t, v[fs.A[1].ID], 43, 105, "Shapley(a1)")
	for i := 2; i <= 5; i++ {
		ratEq(t, v[fs.A[i].ID], 23, 210, "Shapley(a2..a5)")
	}
	ratEq(t, v[fs.A[6].ID], 8, 105, "Shapley(a6)")
	ratEq(t, v[fs.A[7].ID], 8, 105, "Shapley(a7)")
	ratEq(t, v[fs.A[8].ID], 0, 1, "Shapley(a8)")

	// Efficiency: q(Dx ∪ Dn) − q(Dx) = 1 − 0 = 1.
	ratEq(t, v.Sum(), 1, 1, "Σ Shapley")

	if res.NumFacts != 7 {
		t.Errorf("NumFacts = %d, want 7 (a8 does not appear in the lineage)", res.NumFacts)
	}
}

// TestFlightsSubqueries checks Example 5.3's exact values for q2 alone:
// 11/60 for a2..a5 and 2/15 for a6, a7.
func TestFlightsSubqueries(t *testing.T) {
	d, fs := flights.Build()
	cb := circuit.NewBuilder()
	elin, err := engine.EvalBoolean(d, flights.OneStopQuery(), cb, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	endo := make([]db.FactID, 0, 8)
	for _, f := range d.EndogenousFacts() {
		endo = append(endo, f.ID)
	}
	res, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 5; i++ {
		ratEq(t, res.Values[fs.A[i].ID], 11, 60, "Shapley(q2, a2..a5)")
	}
	ratEq(t, res.Values[fs.A[6].ID], 2, 15, "Shapley(q2, a6)")
	ratEq(t, res.Values[fs.A[7].ID], 2, 15, "Shapley(q2, a7)")
	ratEq(t, res.Values[fs.A[1].ID], 0, 1, "Shapley(q2, a1)")

	// q1 alone: a1 is a dictator, Shapley 1; everything else 0.
	cb2 := circuit.NewBuilder()
	elin1, err := engine.EvalBoolean(d, flights.DirectQuery(), cb2, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := ExplainCircuit(context.Background(), elin1, endo, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, res1.Values[fs.A[1].ID], 1, 1, "Shapley(q1, a1)")
	for i := 2; i <= 8; i++ {
		ratEq(t, res1.Values[fs.A[i].ID], 0, 1, "Shapley(q1, others)")
	}
}

// TestFigure2HandBuiltCircuit runs Algorithm 1 directly on a hand-built
// deterministic decomposable circuit for the example's endogenous lineage,
// mirroring Figure 2, without going through the compiler.
func TestFigure2HandBuiltCircuit(t *testing.T) {
	// Variables 1..8 stand for a1..a8.
	b := dnnf.NewBuilder()
	// (a2∨a3)∧(a4∨a5) as decision diagrams:
	a23 := b.Decision(2, b.True(), b.Lit(3))
	a45 := b.Decision(4, b.True(), b.Lit(5))
	pairs := b.And(a23, a45)
	// q2 = pairs ∨ (a6∧a7), made deterministic via Shannon expansion on a6
	// and a7: a6=1 → (a7 ∨ (¬a7 ∧ pairs)); a6=0 → pairs.
	q2hi := b.Decision(7, b.True(), pairs)
	q2 := b.Decision(6, q2hi, pairs)
	// q = a1 ∨ q2, deterministic via Shannon on a1.
	q := b.Decision(1, b.True(), q2)

	if err := dnnf.Validate(q, 10); err != nil {
		t.Fatal(err)
	}
	endo := []db.FactID{1, 2, 3, 4, 5, 6, 7, 8}
	v, err := ShapleyAll(context.Background(), q, endo, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, v[1], 43, 105, "hand-built Shapley(a1)")
	for i := db.FactID(2); i <= 5; i++ {
		ratEq(t, v[i], 23, 210, "hand-built Shapley(a2..a5)")
	}
	ratEq(t, v[6], 8, 105, "hand-built Shapley(a6)")
	ratEq(t, v[7], 8, 105, "hand-built Shapley(a7)")
	ratEq(t, v[8], 0, 1, "hand-built Shapley(a8)")
}

// TestAlgorithm1AgainstNaive cross-checks Algorithm 1 against the 2^n
// enumeration ground truth on random lineage circuits.
func TestAlgorithm1AgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 60; trial++ {
		cb := circuit.NewBuilder()
		nVars := 2 + rng.Intn(5)
		elin := randomMonotoneCircuit(rng, cb, nVars, 3)
		// Universe may be larger than the circuit support: extra null
		// players must get value zero.
		universe := nVars + rng.Intn(3)
		endo := make([]db.FactID, universe)
		for i := range endo {
			endo[i] = db.FactID(i + 1)
		}
		res, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		game := func(subset map[db.FactID]bool) bool {
			assign := make(map[circuit.Var]bool, len(subset))
			for id, in := range subset {
				assign[circuit.Var(id)] = in
			}
			return circuit.Eval(elin, assign)
		}
		want, err := NaiveShapley(game, endo)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range endo {
			if res.Values[f].Cmp(want[f]) != 0 {
				t.Fatalf("trial %d: fact %d: Algorithm 1 = %v, naive = %v\ncircuit: %s",
					trial, f, res.Values[f], want[f], circuit.String(elin))
			}
		}
	}
}

// TestEfficiencyAxiom checks Σ_f Shapley(f) = q(Dn∪Dx) − q(Dx) on random
// monotone lineages (for which q(Dx) corresponds to the empty endogenous
// set).
func TestEfficiencyAxiom(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 40; trial++ {
		cb := circuit.NewBuilder()
		nVars := 2 + rng.Intn(6)
		elin := randomMonotoneCircuit(rng, cb, nVars, 3)
		endo := make([]db.FactID, nVars)
		for i := range endo {
			endo[i] = db.FactID(i + 1)
		}
		res, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		all := make(map[circuit.Var]bool)
		for _, f := range endo {
			all[circuit.Var(f)] = true
		}
		want := big.NewRat(0, 1)
		if circuit.Eval(elin, all) {
			want = big.NewRat(1, 1)
		}
		if circuit.Eval(elin, map[circuit.Var]bool{}) {
			want.Sub(want, big.NewRat(1, 1))
		}
		if res.Values.Sum().Cmp(want) != 0 {
			t.Fatalf("trial %d: Σ Shapley = %v, want %v", trial, res.Values.Sum(), want)
		}
	}
}

func TestComputeAllSATkAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		f := randomTestCNF(rng, 1+rng.Intn(5), 1+rng.Intn(6))
		n, _, err := dnnf.Compile(context.Background(), f, dnnf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		counts := ComputeAllSATk(n)
		vars := n.Vars()
		// Brute-force #SAT_k over the support.
		want := make([]int64, len(vars)+1)
		assign := make(map[int]bool)
		for mask := 0; mask < 1<<len(vars); mask++ {
			k := 0
			for i, v := range vars {
				val := mask&(1<<i) != 0
				assign[v] = val
				if val {
					k++
				}
			}
			if dnnf.Eval(n, assign) {
				want[k]++
			}
		}
		for k := range want {
			if counts[k].Cmp(big.NewInt(want[k])) != 0 {
				t.Fatalf("trial %d: #SAT_%d = %v, want %d", trial, k, counts[k], want[k])
			}
		}
	}
}

func TestPadToUniverse(t *testing.T) {
	// A single positive literal over a universe of 3: #SAT_k = C(2, k-1).
	b := dnnf.NewBuilder()
	counts := PadToUniverse(ComputeAllSATk(b.Lit(1)), 2)
	want := []int64{0, 1, 2, 1}
	for k, w := range want {
		if counts[k].Cmp(big.NewInt(w)) != 0 {
			t.Errorf("#SAT_%d = %v, want %d", k, counts[k], w)
		}
	}
}

func TestShapleyOfFactMatchesShapleyAll(t *testing.T) {
	elin, endo, _ := flightsELin(t)
	res, err := ExplainCircuit(context.Background(), elin, endo, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range endo {
		got := ShapleyOfFact(res.DNNF, endo, f)
		if got.Cmp(res.Values[f]) != 0 {
			t.Errorf("fact %d: ShapleyOfFact = %v, ShapleyAll = %v", f, got, res.Values[f])
		}
	}
}

func TestValuesRankingDeterministic(t *testing.T) {
	v := Values{
		1: big.NewRat(1, 2),
		2: big.NewRat(1, 2),
		3: big.NewRat(3, 4),
		4: big.NewRat(0, 1),
	}
	r := v.Ranking()
	want := []db.FactID{3, 1, 2, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Ranking = %v, want %v", r, want)
		}
	}
}

// --- helpers ---

// randomMonotoneCircuit builds a random negation-free circuit, the shape of
// real SPJU lineage.
func randomMonotoneCircuit(rng *rand.Rand, b *circuit.Builder, nVars, depth int) *circuit.Node {
	if depth == 0 || rng.Intn(4) == 0 {
		return b.Variable(circuit.Var(1 + rng.Intn(nVars)))
	}
	n := 2 + rng.Intn(2)
	cs := make([]*circuit.Node, n)
	for i := range cs {
		cs[i] = randomMonotoneCircuit(rng, b, nVars, depth-1)
	}
	if rng.Intn(2) == 0 {
		return b.And(cs...)
	}
	return b.Or(cs...)
}

func randomTestCNF(rng *rand.Rand, nVars, nClauses int) *cnf.Formula {
	f := &cnf.Formula{Aux: map[int]bool{}, MaxVar: nVars}
	for i := 0; i < nClauses; i++ {
		width := 1 + rng.Intn(3)
		clause := make(cnf.Clause, 0, width)
		for j := 0; j < width; j++ {
			v := 1 + rng.Intn(nVars)
			l := cnf.Lit(v)
			if rng.Intn(2) == 0 {
				l = -l
			}
			clause = append(clause, l)
		}
		f.Clauses = append(f.Clauses, clause)
	}
	return f
}
