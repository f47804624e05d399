package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro"
	"repro/internal/wire"
)

// TestMain lets the tests run the benchmark's own main as a subprocess (and
// lets cold passes re-execute it as their fresh process).
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkFile is BENCHMARK.json's schema.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileRecordsTheWorkloads checks that BENCHMARK.json lists
// exactly the metrics the program prints, and that each workload's reason
// records the parameters the program runs it with.
func TestBenchmarkFileRecordsTheWorkloads(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program prints %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end[%d] = %s %s, program prints %s %s", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program prints %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer[%d] = %s %s, program prints %s %s", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
	why := map[string]string{}
	for _, w := range bf.Workloads {
		why[w.Name] = w.Why
	}
	for _, w := range workloads {
		if why[w] == "" {
			t.Errorf("workload %s has no reason in BENCHMARK.json", w)
		}
	}
	want := map[string][]string{
		"cold-many":     {"scale 10", "seeds 42/7", "fresh process"},
		"large-lineage": {"11d at scale 1", "q9 at scale 3", "seeds 7/42", "no deadline"},
		"serve-mixed": {
			fmt.Sprintf("scale %g", serveScale), "WAL " + serveSync,
			fmt.Sprintf("%g ops/s", fixedRate),
			fmt.Sprintf("knee search from %g/s", stepStart),
			fmt.Sprintf("p99 limit %g ms", latencyLimitMs), "nproc",
		},
	}
	for w, parts := range want {
		for _, p := range parts {
			if !strings.Contains(why[w], p) {
				t.Errorf("%s: reason %q does not record %q", w, why[w], p)
			}
		}
	}
	for name, sets := range coldSpecs {
		for _, set := range sets {
			for _, q := range set.queries {
				if _, err := lookupQuery(set.dataset, q); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}

// TestSmoke runs every workload on tiny inputs, traced and untraced, and
// checks that the printed result passes its own gate and names exactly the
// metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	bf := loadBenchmarkFile(t)
	for _, w := range workloads {
		for _, tr := range []string{"0", "1"} {
			t.Run(w+"/trace"+tr, func(t *testing.T) {
				cmd := exec.Command(exe, "--workload", w, "--seed", "3", "--seconds", "1", "--trace", tr, "--tiny", "--out", t.TempDir())
				cmd.Env = append(os.Environ(), "PERFBENCH_RUN_MAIN=1")
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				var want []string
				if tr == "0" {
					for _, m := range bf.EndToEnd {
						want = append(want, m.Name)
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
				} else {
					for _, m := range bf.PerLayer {
						want = append(want, m.Name)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("metric %s not printed", name)
					}
				}
			})
		}
	}
}

// TestValueGatesRejectPerturbation checks that each value gate notices a
// single perturbed value.
func TestValueGatesRejectPerturbation(t *testing.T) {
	vals := repro.Values{1: big.NewRat(1, 3), 2: big.NewRat(2, 3)}
	if msg := checkEfficiency(vals, true); msg != "" {
		t.Fatalf("exact values rejected: %s", msg)
	}
	perturbed := repro.Values{1: big.NewRat(1, 3), 2: big.NewRat(2001, 3000)}
	if checkEfficiency(perturbed, true) == "" {
		t.Error("efficiency gate accepted values summing to 3001/3000")
	}

	a, b := newDigest(), newDigest()
	a.add("q", "(x)", vals)
	b.add("q", "(x)", repro.Values{1: big.NewRat(1, 3), 2: big.NewRat(2, 3)})
	if a.sum() != b.sum() {
		t.Fatal("digests of identical values differ")
	}
	c := newDigest()
	c.add("q", "(x)", repro.Values{1: big.NewRat(1, 3), 2: big.NewRat(1, 3)})
	if a.sum() == c.sum() {
		t.Error("digest gate accepted a perturbed value")
	}

	served := []wire.TupleExplanation{{Tuple: []any{"x"}, Method: "exact", Facts: []wire.FactScore{
		{Relation: "R", Tuple: []any{1}, ValueRat: "1/3"},
		{Relation: "R", Tuple: []any{2}, ValueRat: "2/3"},
	}}}
	cold := contentValues(served)
	if msg := compareValues(contentValues(served), cold); msg != "" {
		t.Fatalf("identical served values rejected: %s", msg)
	}
	served[0].Facts[1].ValueRat = "3/5"
	if compareValues(contentValues(served), cold) == "" {
		t.Error("served-value gate accepted a perturbed value")
	}
}

// TestKnee checks the interpolation of the highest sustainable rate.
func TestKnee(t *testing.T) {
	// The limit sits at the log-midpoint of the two steps' p99s.
	ok := &stepOutcome{Rate: 100, P99Ms: 5, Passed: true}
	fail := &stepOutcome{Rate: 200, P99Ms: latencyLimitMs * latencyLimitMs / 5}
	if got := knee(ok, fail); got < 149.9 || got > 150.1 {
		t.Errorf("knee = %v, want 150", got)
	}
	if got := knee(ok, nil); got != 100 {
		t.Errorf("knee with every step passing = %v, want the passing rate 100", got)
	}
	// A step that failed on its backlog alone gives the midpoint.
	if got := knee(ok, &stepOutcome{Rate: 200, P99Ms: 20, Backlog: 50}); got != 150 {
		t.Errorf("knee with a backlogged step = %v, want 150", got)
	}
}

// TestSearchKnee checks that the stepped search brackets the rate at which
// a simulated server's p99 crosses the limit.
func TestSearchKnee(t *testing.T) {
	for _, capacity := range []float64{120, 333, 640, 2500} {
		step := func(rate float64) stepOutcome {
			s := stepOutcome{Rate: rate, P99Ms: 10}
			if rate > capacity {
				s.P99Ms = 10 * latencyLimitMs
			}
			s.Passed = s.P99Ms <= latencyLimitMs
			return s
		}
		got, steps := searchKnee(step)
		if got < capacity*(1-stepResolution) || got > capacity*(1+stepResolution) {
			t.Errorf("capacity %v: knee %v after %d steps", capacity, got, len(steps))
		}
		if len(steps) > 12 {
			t.Errorf("capacity %v: search took %d steps", capacity, len(steps))
		}
	}
}

// TestFixedSchedule checks the fixed phase's mix and that every update
// follows an explain of its own pair.
func TestFixedSchedule(t *testing.T) {
	ops := fixedSchedule(fixedRate, 20)
	counts := make([]int, len(opNames))
	for i, o := range ops {
		counts[o.kind]++
		if o.kind == opUpdate && (ops[i-1].kind != opExplain || ops[i-1].pair != o.pair) {
			t.Errorf("update %d of pair %d does not follow an explain of its pair", i, o.pair)
		}
	}
	if n := len(ops) / 20; counts[opExplain] != 16*n || counts[opUpdate] != 3*n || counts[opApprox] != n {
		t.Errorf("mix %v over %d cycles, want 16/3/1 per cycle", counts, n)
	}
}

// TestCoverage checks the union arithmetic behind self time and coverage.
func TestCoverage(t *testing.T) {
	ivs := []interval{{0, 10}, {5, 20}, {30, 40}, {35, 60}}
	if got := covered(ivs, interval{0, 50}); got != 40 {
		t.Errorf("covered = %v, want 40", got)
	}
	spans := []span{
		{Name: "explain", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 0, End: 60},
		{Name: "b", Parent: 0, Start: 50, End: 90},
	}
	wall, cov := rootCoverage(spans, "explain")
	if wall != 100 || cov != 90 {
		t.Errorf("rootCoverage = %v, %v; want 100, 90", wall, cov)
	}
	if s := summarize(spans)["explain"]; s.SelfMs != ms(10) {
		t.Errorf("self time = %v ms, want %v", s.SelfMs, ms(10))
	}
}
