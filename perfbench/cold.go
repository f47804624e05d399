package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dnnf"
	"repro/internal/engine"
	"repro/internal/imdb"
	"repro/internal/parallel"
	"repro/internal/tpch"
)

// dataSet is one generated database and the queries a pass explains on it.
type dataSet struct {
	dataset string // "tpch" or "imdb"
	scale   float64
	queries []string
}

// coldSpecs are the one-shot workloads. The generators' default seeds fix
// the data: on large-lineage the lineage sizes, and so the cost, swing by
// orders of magnitude between generator seeds.
var coldSpecs = map[string][]dataSet{
	"cold-many": {
		{"tpch", 10, []string{"q3", "q5", "q7", "q10", "q11", "q16", "q18", "q19"}},
		{"imdb", 10, []string{"1a", "6b", "7c", "8d", "11a", "13c"}},
	},
	"large-lineage": {
		{"imdb", 1, []string{"11d"}},
		{"tpch", 3, []string{"q9"}},
	},
}

// tinyFactor shrinks every scale for the smoke tests.
const tinyFactor = 0.25

// scaled applies tinyFactor to a scale when the run is tiny.
func scaled(cfg config, s float64) float64 {
	if cfg.tiny {
		return s * tinyFactor
	}
	return s
}

// smallTupleFacts bounds the lineage size of the tuples a cold pass's
// update operations may touch, so they measure delta maintenance and not a
// recompilation of the workload's largest lineage.
const smallTupleFacts = 16

// Per query and pass, a cold pass updates this many facts and repeats the
// approximate explain this many times, so the percentiles of these cheap
// operations rest on enough samples.
const (
	updateFacts   = 32
	approxRepeats = 5
)

// generate builds a data set at the given scale with the generator's own
// default seed.
func generate(dataset string, scale float64) *repro.Database {
	if dataset == "tpch" {
		return tpch.Generate(tpch.DefaultConfig().Scaled(scale))
	}
	return imdb.Generate(imdb.DefaultConfig().Scaled(scale))
}

// lookupQuery returns a named query of a data set's suite.
func lookupQuery(dataset, name string) (*repro.Query, error) {
	if dataset == "tpch" {
		for _, q := range tpch.Queries() {
			if q.Name == name {
				return q.Q, nil
			}
		}
	} else {
		for _, q := range imdb.Queries() {
			if q.Name == name {
				return q.Q, nil
			}
		}
	}
	return nil, fmt.Errorf("no query %s/%s", dataset, name)
}

// coldQuery is one query of a pass, bound to its database.
type coldQuery struct {
	label string // dataset/name
	q     *repro.Query
	d     *repro.Database
}

// setupRepeats is how many times a pass times its set-up: once for the data
// it runs on, and again after its peak RSS was read, with the copies
// discarded. A large-lineage run makes only two or three passes of a few
// milliseconds of set-up each, too few for a steady median over passes.
const setupRepeats = 3

// setupCold generates the workload's databases and returns the pass's
// queries in suite order, with the time generation took. The order is fixed: a query explained later finds the
// compile-cache entries and lazily built join indexes of the ones before
// it, so the order moves per-query latencies.
func setupCold(cfg config) ([]coldQuery, time.Duration, error) {
	var qs []coldQuery
	start := time.Now()
	for _, set := range coldSpecs[cfg.workload] {
		d := generate(set.dataset, scaled(cfg, set.scale))
		for _, name := range set.queries {
			q, err := lookupQuery(set.dataset, name)
			if err != nil {
				return nil, 0, err
			}
			qs = append(qs, coldQuery{label: set.dataset + "/" + name, q: q, d: d})
		}
	}
	return qs, time.Since(start), nil
}

// passRecord is what one cold pass reports, from its own process.
type passRecord struct {
	SetupS  float64  `json:"setup_s"`
	PassS   float64  `json:"pass_s"` // summed explain-operation time
	Queries []string `json:"queries"`
	// One latency per query: its explain, and the median of its update and
	// approx operations. A pass's percentiles are taken across queries, so
	// a p50 between two queries' latencies rests on their medians rather
	// than on the slowest run of one and the fastest of the other.
	ExplainMs []float64 `json:"explain_ms"`
	UpdateMs  []float64 `json:"update_ms"`
	ApproxMs  []float64 `json:"approx_ms"`
	Tuples    int       `json:"tuples"`
	Facts     []int     `json:"lineage_facts"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	Hits      int64     `json:"cache_hits"`
	Renamed   int64     `json:"cache_renamed_hits"`
	Misses    int64     `json:"cache_misses"`
	Digest    string    `json:"digest"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Problems  []string  `json:"problems,omitempty"`
}

// runColdPassChild runs one cold pass in this (fresh) process. Per query
// it times three operations:
//
//   - explain: open a session and explain every tuple. This is exactly
//     what repro.Explain does (Open, Explain, Close); the session stays open
//     for the update operation.
//   - update: insert a duplicate of a lineage fact of a small tuple through
//     the session and re-explain, then delete the duplicate and re-explain;
//     for the same updateFacts facts in every pass, in an order drawn from
//     the seed and the pass index. The database ends exactly where
//     it started, fact IDs included, so later queries of the pass see
//     unchanged inputs.
//   - approx: a one-shot approximate-mode explain of the same query,
//     approxRepeats times.
//
// Pass time sums the explain operations alone; compile-cache counters are
// taken around them alone. The heap is collected before each query's
// explain, updates and approx explains, so garbage from the seed's update
// choices never lands a collection in another operation's timing.
func runColdPassChild(ctx context.Context, cfg config) (*passRecord, error) {
	qs, setup, err := setupCold(cfg)
	if err != nil {
		return nil, err
	}
	rec := &passRecord{}
	digest := newDigest()
	// Each pass updates its query's facts in another order.
	rng := rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(cfg.pass)))
	var pass time.Duration
	fail := func(format string, args ...any) {
		rec.Failed++
		rec.Problems = append(rec.Problems, fmt.Sprintf(format, args...))
	}
	for _, cq := range qs {
		rec.Queries = append(rec.Queries, cq.label)

		rec.Attempted++
		runtime.GC()
		before := repro.CompileCacheStats()
		t0 := time.Now()
		s, err := repro.OpenContext(ctx, cq.d, cq.q, repro.Options{})
		var es []repro.TupleExplanation
		if err == nil {
			es, err = s.Explain(ctx)
		}
		took := time.Since(t0)
		delta := repro.CompileCacheStats().Sub(before)
		if err != nil {
			fail("%s: explain: %v", cq.label, err)
			continue
		}
		pass += took
		rec.ExplainMs = append(rec.ExplainMs, ms(took))
		rec.Hits += delta.Hits
		rec.Renamed += delta.RenamedHits
		rec.Misses += delta.Misses
		for _, e := range es {
			rec.Facts = append(rec.Facts, e.NumFacts)
			if e.Method != repro.MethodExact {
				fail("%s %v: method %v, want exact", cq.label, e.Tuple, e.Method)
				continue
			}
			rec.Tuples++
			if msg := checkEfficiency(e.Values, e.NumFacts > 0); msg != "" {
				fail("%s %v: %s", cq.label, e.Tuple, msg)
			}
			digest.add(cq.label, e.Tuple.String(), e.Values)
		}

		runtime.GC()
		var updates, approxes []float64
		for _, id := range updateCandidates(es, rng) {
			rec.Attempted += 2
			ms1, ms2, err := coldUpdate(ctx, s, cq.d.Fact(id), es)
			if err != nil {
				fail("%s: update: %v", cq.label, err)
				continue
			}
			updates = append(updates, ms1, ms2)
		}
		s.Close()
		if len(updates) > 0 {
			rec.UpdateMs = append(rec.UpdateMs, median(updates))
		}

		runtime.GC()
		for r := 0; r < approxRepeats; r++ {
			rec.Attempted++
			t0 = time.Now()
			ea, err := repro.Explain(ctx, cq.d, cq.q, repro.Options{Budget: repro.ExplainBudget{Mode: repro.ModeApproximate}})
			took = time.Since(t0)
			if err != nil {
				fail("%s: approx: %v", cq.label, err)
				continue
			}
			approxes = append(approxes, ms(took))
			for _, e := range ea {
				if e.Method != repro.MethodApprox && e.NumFacts > 0 {
					fail("%s %v: approximate explain answered %v", cq.label, e.Tuple, e.Method)
				}
			}
		}
		if len(approxes) > 0 {
			rec.ApproxMs = append(rec.ApproxMs, median(approxes))
		}
	}
	rec.PassS = pass.Seconds()
	rec.PeakRSSMB = peakRSSMB()
	setups := []float64{setup.Seconds()}
	for len(setups) < setupRepeats {
		_, t, err := setupCold(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, t.Seconds())
	}
	rec.SetupS = median(setups)
	rec.Digest = digest.sum()
	return rec, nil
}

// updateCandidates picks up to updateFacts lineage facts for the update
// operations, in an order rng draws: facts whose largest tuple has at most
// smallTupleFacts facts, or, when every tuple is larger, the facts whose
// largest tuple is smallest. Every pass and seed picks the same facts: the
// cost of an update moves with the tuples its fact is in, and a set drawn
// per pass moved large-lineage's per-pass update median twofold.
func updateCandidates(es []repro.TupleExplanation, rng *rand.Rand) []repro.FactID {
	largest := make(map[repro.FactID]int)
	for _, e := range es {
		for id := range e.Values {
			if e.NumFacts > largest[id] {
				largest[id] = e.NumFacts
			}
		}
	}
	bound := -1
	for _, n := range largest {
		if bound < 0 || n < bound {
			bound = n
		}
	}
	bound = max(bound, smallTupleFacts)
	var cands []repro.FactID
	for id, n := range largest {
		if n <= bound {
			cands = append(cands, id)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	rand.New(rand.NewSource(1)).Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	cands = cands[:min(len(cands), updateFacts)]
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	return cands
}

// coldUpdate runs one update operation on an open session: insert a
// duplicate of f, re-explain, delete the duplicate, re-explain. The final
// explanation must be big.Rat-identical to es, the one before the update.
func coldUpdate(ctx context.Context, s *repro.Session, f *repro.Fact, es []repro.TupleExplanation) (float64, float64, error) {
	vals := append([]repro.Value(nil), f.Tuple...)

	t0 := time.Now()
	ins, err := s.ApplyContext(ctx, []repro.Mutation{repro.InsertOp(f.Relation, true, vals...)})
	if err == nil {
		_, err = s.Explain(ctx)
	}
	first := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	t0 = time.Now()
	_, err = s.ApplyContext(ctx, []repro.Mutation{repro.DeleteOp(ins[0].ID)})
	var after []repro.TupleExplanation
	if err == nil {
		after, err = s.Explain(ctx)
	}
	second := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	before, now := newDigest(), newDigest()
	for _, e := range es {
		before.add("", e.Tuple.String(), e.Values)
	}
	for _, e := range after {
		now.add("", e.Tuple.String(), e.Values)
	}
	if before.sum() != now.sum() {
		return 0, 0, fmt.Errorf("values after insert+delete of %s%v differ from before", f.Relation, f.Tuple)
	}
	return ms(first), ms(second), nil
}

// checkEfficiency checks the Shapley efficiency axiom: the values of a
// tuple sum to q(D) − q(Dx), which is 1 for a tuple whose lineage has
// endogenous facts and 0 otherwise.
func checkEfficiency(v repro.Values, hasFacts bool) string {
	want := big.NewRat(0, 1)
	if hasFacts {
		want = big.NewRat(1, 1)
	}
	if got := repro.EfficiencySum(v); got.Cmp(want) != 0 {
		return fmt.Sprintf("values sum to %s, want %s", got.RatString(), want.RatString())
	}
	return ""
}

// digest is an order-independent fingerprint of exact values.
type digest struct{ lines []string }

func newDigest() *digest { return &digest{} }

func (g *digest) add(query, tuple string, v repro.Values) {
	for id, r := range v {
		g.lines = append(g.lines, query+"\t"+tuple+"\t"+strconv.FormatInt(int64(id), 10)+"\t"+r.RatString())
	}
}

func (g *digest) sum() string {
	sort.Strings(g.lines)
	h := sha256.New()
	for _, l := range g.lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runChildPass runs one cold pass in a fresh process and decodes its
// record.
func runChildPass(ctx context.Context, cfg config, pass int) (*passRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--child", "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--pass", strconv.Itoa(pass), "--out", cfg.outDir}
	if cfg.tiny {
		args = append(args, "--tiny")
	}
	cctx, cancel := context.WithTimeout(ctx, 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(cctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("cold pass process: %w", err)
	}
	var rec passRecord
	if err := json.Unmarshal(stdout.Bytes(), &rec); err != nil {
		return nil, fmt.Errorf("cold pass record: %w", err)
	}
	return &rec, nil
}

// minPasses is the fewest cold passes a run makes, however long they take.
const minPasses = 2

// morePasses reports whether a run that started at start and whose last
// pass took last has time for another pass of about the same length.
func morePasses(cfg config, start time.Time, last time.Duration, done, least int) bool {
	return done < least || time.Since(start)+last <= time.Duration(cfg.seconds*float64(time.Second))
}

// runCold is the untraced cold run: fresh-process passes while the run's
// time allows, each metric the median of its per-pass values.
func runCold(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	var recs []*passRecord
	start := time.Now()
	var last time.Duration
	for morePasses(cfg, start, last, len(recs), minPasses) {
		t0 := time.Now()
		rec, err := runChildPass(ctx, cfg, len(recs))
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)
		recs = append(recs, rec)
	}
	// Every metric is taken per pass and reported as the median over
	// passes.
	perPass := map[string][]float64{}
	add := func(name string, x float64) { perPass[name] = append(perPass[name], x) }
	for i, rec := range recs {
		out.attempted += rec.Attempted
		out.failed += rec.Failed
		for _, p := range rec.Problems {
			out.problem("pass %d: %s", i, p)
		}
		if rec.Digest != recs[0].Digest {
			out.problem("pass %d: value digest %s differs from pass 0's %s", i, rec.Digest, recs[0].Digest)
		}
		add("setup_s", rec.SetupS)
		add("tuples_per_s", float64(rec.Tuples)/rec.PassS)
		add("max_rate_rps", float64(len(rec.ExplainMs))/rec.PassS)
		add("peak_rss_mb", rec.PeakRSSMB)
		add("explain_ms_p50", percentile(rec.ExplainMs, 50))
		add("explain_ms_p90", percentile(rec.ExplainMs, 90))
		add("update_ms_p50", percentile(rec.UpdateMs, 50))
		add("update_ms_p75", percentile(rec.UpdateMs, 75))
		add("approx_ms_p50", percentile(rec.ApproxMs, 50))
		add("approx_ms_p90", percentile(rec.ApproxMs, 90))
	}
	v := out.values
	for name, xs := range perPass {
		v[name] = median(xs)
	}

	props := inputProperties(recs[0])
	props["passes"] = len(recs)
	props["digest"] = recs[0].Digest
	props["gomaxprocs"] = parallel.Workers(0)
	printProperties(cfg, props)
	if _, err := writeReport(cfg, "report", map[string]any{"inputs": props, "passes": recs, "metrics": v}); err != nil {
		return nil, err
	}
	return out, nil
}

// inputProperties describes a pass's inputs: the properties later
// performance claims depend on.
func inputProperties(rec *passRecord) map[string]any {
	facts := make([]float64, len(rec.Facts))
	small := 0
	for i, n := range rec.Facts {
		facts[i] = float64(n)
		if n <= 63 {
			small++
		}
	}
	lookups := rec.Hits + rec.Misses
	props := map[string]any{
		"tuples":             len(rec.Facts),
		"lineage_facts_p50":  percentile(facts, 50),
		"lineage_facts_p90":  percentile(facts, 90),
		"lineage_facts_max":  percentile(facts, 100),
		"share_n_le_63":      share(small, len(rec.Facts)),
		"cache_lookups":      lookups,
		"cache_renamed_hits": rec.Renamed,
		"cache_misses":       rec.Misses,
	}
	if lookups > 0 {
		props["cache_renamed_share"] = float64(rec.Renamed) / float64(lookups)
	}
	return props
}

func share(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// printProperties writes the input-property report to standard error.
func printProperties(cfg config, props map[string]any) {
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "perfbench: inputs of %s seed %d:", cfg.workload, cfg.seed)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, " %s=%v", k, props[k])
	}
	fmt.Fprintln(os.Stderr)
}

// tracedTuple is one tuple's result on the traced path.
type tracedTuple struct {
	values    repro.Values
	facts     int
	clauses   int
	decisions int
	nodes     int
}

// tracedPassStats are the per-layer counts of one traced pass.
type tracedPassStats struct {
	tuples, clauses, decisions, nodes int
	facts                             []int
	cache                             dnnf.CacheStats
	samples                           int
	digest                            string
}

// runTracedColdPass replays one cold pass in this process, decomposed into
// the layer calls Session makes: engine.NewIncremental and the lineage
// build, then core.TseytinStage, core.CompileStage with a fresh shared
// compile cache and core.ShapleyStage per live answer, fanned out across
// answers exactly as Session.Explain does. The approximate operation is
// decomposed the same way into grounding and core.ApproxStage per answer.
// The update operation is not replayed: it restores the database exactly,
// so the explain operations see the same inputs without it.
func runTracedColdPass(ctx context.Context, cfg config, rec *recorder) (*tracedPassStats, []string, error) {
	qs, _, err := setupCold(cfg)
	if err != nil {
		return nil, nil, err
	}
	cache := dnnf.NewCompileCache(0)
	workers := parallel.Workers(0)
	st := &tracedPassStats{}
	dg := newDigest()
	var problems []string
	for qi, cq := range qs {
		op := 2 * qi
		root := rec.start("explain", spanRef{}, op, 0)
		live, err := groundTraced(ctx, cq, rec, root, op)
		if err != nil {
			return nil, nil, err
		}
		outer := workers
		if outer > len(live) {
			outer = len(live)
		}
		inner := 1
		if outer > 0 {
			inner = max(1, workers/outer)
		}
		popts := core.PipelineOptions{Workers: inner, CompileWorkers: inner, Cache: cache, CacheOwner: cq.d.ID()}
		res := make([]tracedTuple, len(live))
		err = parallel.ForEach(ctx, len(live), outer, func(w, i int) error {
			a := live[i]
			endo := lineageEndo(a.Lineage)
			sp := rec.start("cnf.tseytin", root, op, 1+w)
			formula := core.TseytinStage(a.Lineage, endo)
			sp.end("clauses", formula.NumClauses())
			sp = rec.start("dnnf.compile", root, op, 1+w)
			reduced, cst, err := core.CompileStage(ctx, formula, popts)
			if err != nil {
				sp.end("error", err.Error())
				return err
			}
			nodes := dnnf.Size(reduced)
			sp.end("decisions", cst.Decisions, "nodes", nodes, "cross_hit", cst.CrossCallHit, "renamed_hit", cst.RenamedHit)
			sp = rec.start("core.shapley", root, op, 1+w)
			vals, err := core.ShapleyStage(ctx, reduced, endo, popts)
			sp.end("facts", len(endo))
			if err != nil {
				return err
			}
			res[i] = tracedTuple{values: vals, facts: len(endo), clauses: formula.NumClauses(), decisions: cst.Decisions, nodes: nodes}
			return nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", cq.label, err)
		}
		root.end("query", cq.label, "tuples", len(live))
		for i, a := range live {
			r := res[i]
			st.tuples++
			st.clauses += r.clauses
			st.decisions += r.decisions
			st.nodes += r.nodes
			st.facts = append(st.facts, r.facts)
			if msg := checkEfficiency(r.values, lineageTotal(a.Lineage)); msg != "" {
				problems = append(problems, fmt.Sprintf("traced %s %v: %s", cq.label, a.Tuple, msg))
			}
			dg.add(cq.label, a.Tuple.String(), r.values)
		}

		aop := op + 1
		aroot := rec.start("approx", spanRef{}, aop, 0)
		live, err = groundTraced(ctx, cq, rec, aroot, aop)
		if err != nil {
			return nil, nil, err
		}
		budget := repro.ExplainBudget{Mode: repro.ModeApproximate}
		samples := make([]int, len(live))
		outer = min(workers, max(1, len(live)))
		err = parallel.ForEach(ctx, len(live), outer, func(w, i int) error {
			a := live[i]
			sp := rec.start("core.approx", aroot, aop, 1+w)
			ar, err := core.ApproxStage(ctx, a.Lineage, lineageEndo(a.Lineage), budget)
			if err != nil {
				sp.end("error", err.Error())
				return err
			}
			sp.end("samples", ar.Permutations)
			samples[i] = ar.Permutations
			return nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%s approx: %w", cq.label, err)
		}
		aroot.end("query", cq.label)
		for _, n := range samples {
			st.samples += n
		}
	}
	st.cache = cache.Stats()
	st.digest = dg.sum()
	return st, problems, nil
}

// groundTraced grounds a query the way Session does and builds the live
// answers' lineage, recording both calls.
func groundTraced(ctx context.Context, cq coldQuery, rec *recorder, root spanRef, op int) ([]engine.LiveAnswer, error) {
	sp := rec.start("engine.ground", root, op, 0)
	inc, err := engine.NewIncremental(ctx, cq.d, cq.q, circuit.NewBuilder(), engine.Options{Mode: engine.ModeEndogenous})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("%s: ground: %w", cq.label, err)
	}
	sp = rec.start("engine.lineage", root, op, 0)
	live := inc.Live()
	sp.end("answers", len(live))
	return live, nil
}

func lineageEndo(lineage *circuit.Node) []repro.FactID {
	vars := circuit.Vars(lineage)
	out := make([]repro.FactID, len(vars))
	for i, v := range vars {
		out[i] = repro.FactID(v)
	}
	return out
}

// lineageTotal reports whether the lineage is true with every endogenous
// fact present and false with none: the game's q(D) − q(Dx) is then 1.
func lineageTotal(lineage *circuit.Node) bool {
	all := make(map[circuit.Var]bool)
	for _, v := range circuit.Vars(lineage) {
		all[v] = true
	}
	return circuit.Eval(lineage, all) && !circuit.Eval(lineage, map[circuit.Var]bool{})
}

// runColdTraced is the traced cold run: one untraced fresh-process pass
// for the overhead and value comparison, then traced passes in this
// process while the run's time allows. Times are medians over traced
// passes; counts must repeat exactly across them.
func runColdTraced(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	start := time.Now()
	base, err := runChildPass(ctx, cfg, 0)
	if err != nil {
		return nil, err
	}
	out.attempted += base.Attempted
	out.failed += base.Failed
	for _, p := range base.Problems {
		out.problem("untraced pass: %s", p)
	}

	var passes []*tracedPassStats
	var sums []map[string]*layerSummary
	var walls, covs []float64
	var firstSpans []span
	last := time.Since(start)
	for morePasses(cfg, start, last, len(passes), 1) {
		t0 := time.Now()
		rec := newRecorder()
		st, problems, err := runTracedColdPass(ctx, cfg, rec)
		if err != nil {
			return nil, err
		}
		for _, p := range problems {
			out.problem("%s", p)
		}
		spans := rec.snapshot()
		if firstSpans == nil {
			firstSpans = spans
		}
		wall, cov := rootCoverage(spans, "explain")
		walls = append(walls, ms(wall))
		covs = append(covs, ms(cov))
		sums = append(sums, summarize(spans))
		passes = append(passes, st)
		out.attempted += st.tuples
		last = time.Since(t0)
	}

	first := passes[0]
	if first.digest != base.Digest {
		out.problem("traced values digest %s differs from the untraced pass's %s", first.digest, base.Digest)
	}
	// Counts that differ between passes are reported, not failed: values
	// are gated by the digests above, and the counts' repeatability is a
	// property of the program being measured (concurrent compiles of
	// isomorphic lineages race in the shared cache).
	for i, p := range passes[1:] {
		if p.digest != first.digest {
			out.problem("traced pass %d: value digest differs from traced pass 0", i+1)
		}
		if p.decisions != first.decisions || p.nodes != first.nodes || p.cache != first.cache {
			out.note("traced pass %d: decisions %d nodes %d hits %d renamed %d misses %d; pass 0: %d %d %d %d %d", i+1,
				p.decisions, p.nodes, p.cache.Hits, p.cache.RenamedHits, p.cache.Misses,
				first.decisions, first.nodes, first.cache.Hits, first.cache.RenamedHits, first.cache.Misses)
		}
	}
	if first.cache.Hits != base.Hits || first.cache.Misses != base.Misses || first.cache.RenamedHits != base.Renamed {
		out.note("traced cache counts (hits %d renamed %d misses %d) differ from the untraced pass's (%d %d %d)",
			first.cache.Hits, first.cache.RenamedHits, first.cache.Misses, base.Hits, base.Renamed, base.Misses)
	}

	v := out.values
	layerMs := func(name string) float64 {
		xs := make([]float64, len(sums))
		for i, s := range sums {
			if ls := s[name]; ls != nil {
				xs[i] = ls.TotalMs
			}
		}
		return median(xs)
	}
	v["engine.ground_ms"] = layerMs("engine.ground")
	v["engine.lineage_ms"] = layerMs("engine.lineage")
	v["cnf.tseytin_ms"] = layerMs("cnf.tseytin")
	v["dnnf.compile_ms"] = layerMs("dnnf.compile")
	v["core.shapley_ms"] = layerMs("core.shapley")
	v["core.approx_ms"] = layerMs("core.approx")
	facts := make([]float64, len(first.facts))
	small := 0
	for i, n := range first.facts {
		facts[i] = float64(n)
		if n <= 63 {
			small++
		}
	}
	v["engine.answers"] = float64(first.tuples)
	v["engine.lineage_facts_p50"] = percentile(facts, 50)
	v["engine.lineage_facts_max"] = percentile(facts, 100)
	v["engine.share_n_le_63"] = share(small, len(facts))
	v["cnf.clauses"] = float64(first.clauses)
	v["dnnf.decisions"] = float64(first.decisions)
	v["dnnf.nodes"] = float64(first.nodes)
	v["dnnf.cache_hit_ratio"] = first.cache.HitRate()
	v["dnnf.cache_renamed_hits"] = float64(first.cache.RenamedHits)
	v["dnnf.cache_misses"] = float64(first.cache.Misses)
	v["core.approx_samples"] = float64(first.samples)
	wall, cov := median(walls), median(covs)
	v["trace.coverage"] = cov / wall
	v["trace.unattributed_ms"] = wall - cov
	v["trace.overhead_ms"] = wall - base.PassS*1000
	if cov/wall < 0.9 {
		out.note("top-level layer spans cover only %.1f%% of the traced pass", 100*cov/wall)
	}

	tracePath := fmt.Sprintf("%s/trace-%s-seed%d.json", cfg.outDir, cfg.workload, cfg.seed)
	if err := writeChromeTrace(tracePath, firstSpans); err != nil {
		return nil, err
	}
	props := inputProperties(base)
	props["traced_passes"] = len(passes)
	props["digest"] = base.Digest
	printProperties(cfg, props)
	summaryPath, err := writeReport(cfg, "layers", map[string]any{
		"inputs": props, "layers": summarize(firstSpans), "metrics": v, "chrome_trace": tracePath,
		"untraced_pass_ms": base.PassS * 1000, "traced_pass_ms": walls, "notes": out.notes,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: chrome trace %s, layer summary %s\n", tracePath, summaryPath)
	return out, nil
}
