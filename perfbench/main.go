// Command perfbench is the repository's benchmark: one command that runs a
// workload from a workload seed, checks that every explanation it produced
// is correct, and prints every metric by name and unit.
//
//	bash perfbench/run.sh --workload cold-many --seed 1 --seconds 35 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//   - cold-many: one-shot explains of 14 TPC-H and IMDB queries with small
//     lineages; every pass runs in a fresh process, so it starts with an
//     empty process-wide compile cache.
//   - large-lineage: one-shot explains of IMDB 11d and TPC-H q9, whose
//     lineages are large enough that compilation and the Shapley DPs
//     dominate.
//   - serve-mixed: an in-process explanation server behind a loopback
//     listener, driven by an open loop of explains, updates and
//     approximate explains, then by a stepped explain rate.
//
// With --trace 0 the last line of standard output is a JSON object with the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// separate traced run, whose spans are also written as Chrome trace-event
// JSON next to a report of the run's input properties. Data sets are
// generated with the generators' fixed seeds and the operation order is
// fixed too, as are the facts the cold and served updates touch; --seed
// picks the order in which they are touched, so the same seed gives the
// same inputs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics every --trace 0 run prints, in BENCHMARK.json
// order. Each latency tail is the highest percentile with about ten
// samples beyond it in serve-mixed, the workload with the fewest
// operations: a run there has about 170 explains and 32 updates. Its 10
// approx operations sample the same query and cost about the same, so
// their p90 is steady too.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tuples_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"explain_ms_p50", "ms"},
	{"explain_ms_p90", "ms"},
	{"update_ms_p50", "ms"},
	{"update_ms_p75", "ms"},
	{"approx_ms_p50", "ms"},
	{"approx_ms_p90", "ms"},
	{"max_rate_rps", "1/s"},
}

// perLayer lists the metrics every --trace 1 run prints. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"engine.ground_ms", "ms"},
	{"engine.lineage_ms", "ms"},
	{"engine.answers", "count"},
	{"engine.lineage_facts_p50", "count"},
	{"engine.lineage_facts_max", "count"},
	{"engine.share_n_le_63", "share"},
	{"cnf.tseytin_ms", "ms"},
	{"cnf.clauses", "count"},
	{"dnnf.compile_ms", "ms"},
	{"dnnf.decisions", "count"},
	{"dnnf.nodes", "count"},
	{"dnnf.cache_hit_ratio", "share"},
	{"dnnf.cache_renamed_hits", "count"},
	{"dnnf.cache_misses", "count"},
	{"core.shapley_ms", "ms"},
	{"core.approx_ms", "ms"},
	{"core.approx_samples", "count"},
	{"session.open_ms", "ms"},
	{"session.explain_ms", "ms"},
	{"session.apply_ms", "ms"},
	{"session.dirty_tuples", "count"},
	{"db.wal_bytes_per_update", "bytes"},
	{"server.pool_reuse_ratio", "share"},
	{"server.pool_evictions", "count"},
	{"server.update_batch_requests", "count"},
	{"server.shed", "count"},
	{"wire.encode_ms", "ms"},
	{"wire.response_bytes_p50", "bytes"},
	{"load.fixed.sent", "count"},
	{"load.fixed.succeeded", "count"},
	{"load.fixed.failed", "count"},
	{"load.fixed.retried", "count"},
	{"load.fixed.lag_ms_p99", "ms"},
	{"load.step.sent", "count"},
	{"load.step.succeeded", "count"},
	{"load.step.failed", "count"},
	{"load.step.retried", "count"},
	{"load.step.lag_ms_p99", "ms"},
	{"run.failed_share", "share"},
	{"run.gomaxprocs", "count"},
	{"trace.coverage", "share"},
	{"trace.unattributed_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run hands back to main: the values by metric
// name plus the correctness verdict and operation counts.
type outcome struct {
	values    map[string]float64
	problems  []string // correctness failures; any entry fails the run
	notes     []string // findings that do not fail the run
	attempted int
	failed    int
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // shrink every input (the benchmark's own tests)
	pass     int    // index of a cold pass, in its own process
	outDir   string // reports, traces and temporary stores
}

var workloads = []string{"cold-many", "large-lineage", "serve-mixed"}

func main() {
	var cfg config
	var traceFlag int
	child := flag.Bool("child", false, "internal: run one cold pass and print its JSON record")
	flag.IntVar(&cfg.pass, "pass", 0, "internal: index of the cold pass")
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 35, "measurement time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.BoolVar(&cfg.tiny, "tiny", false, "shrink every input (smoke tests)")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for reports, traces and temporary stores")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	ctx := context.Background()

	if *child {
		rec, err := runColdPassChild(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
			fatal(err)
		}
		return
	}

	var out *outcome
	var err error
	switch cfg.workload {
	case "cold-many", "large-lineage":
		if cfg.trace {
			out, err = runColdTraced(ctx, cfg)
		} else {
			out, err = runCold(ctx, cfg)
		}
	case "serve-mixed":
		out, err = runServe(ctx, cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		fatal(err)
	}
	res := finish(cfg, out)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// finish turns an outcome into the printed result: exactly the metric set
// of the run's kind, every value present.
func finish(cfg config, o *outcome) result {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		o.values["run.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
		if o.attempted > 0 {
			o.values["run.failed_share"] = float64(o.failed) / float64(o.attempted)
		}
	}
	res := result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok && !cfg.trace {
			o.problem("metric %s was not measured", d.Name)
			res.Correct = false
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for _, n := range o.notes {
		fmt.Fprintln(os.Stderr, "perfbench: note:", n)
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: correctness:", p)
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	return res
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%g", &kb)
			return kb / 1024
		}
	}
	return 0
}

// writeReport stores a JSON document under the output directory and
// returns its path.
func writeReport(cfg config, kind string, v any) (string, error) {
	tr := 0
	if cfg.trace {
		tr = 1
	}
	path := fmt.Sprintf("%s/%s-%s-seed%d-trace%d.json", cfg.outDir, kind, cfg.workload, cfg.seed, tr)
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
