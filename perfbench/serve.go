package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/parallel"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// serve-mixed parameters. BENCHMARK.json's description of the workload
// quotes them; the benchmark's tests check that it does.
const (
	serveScale     = 4.0
	serveSync      = "every" // shapleyd's default WAL sync policy
	serveTimeout   = 2500 * time.Millisecond
	fixedRate      = 10.0  // operations per second in the fixed phase
	latencyLimitMs = 100.0 // explain p99 limit for max_rate_rps
	explainTop     = 10
	// updateFactsPerPair bounds the facts each pair's updates delete.
	updateFactsPerPair = 2
	serveSetups        = 3                // set-ups per run; setup_s is their median
	replayOps          = 150              // operations of the fixed schedule the traced replay runs
	maxLagMs           = 1000 / fixedRate // a run whose generator lags one inter-arrival gap at p99 is invalid
	fixedShare         = 0.6              // of --seconds; the stepped phase takes about the rest

	// The stepped phase searches for the knee: from stepStart the offered
	// rate grows by stepGrowth per step of stepSeconds until a step fails,
	// then bisects until the passing and failing rates are within
	// stepResolution of each other. It searches sweeps times; max_rate_rps
	// is the highest knee, because a stall of the host only ever lowers a
	// search's knee.
	stepStart      = 300.0
	stepGrowth     = 1.5
	stepResolution = 0.04
	stepSeconds    = 1.0
	maxSteps       = 16
	sweeps         = 2
)

type pairSpec struct{ dataset, query string }

// servePairs are the warm (dataset, query) pairs. approxQuery is the query
// of the approximate operations: its lineages (up to about 330 facts) are
// too large for the exact tier. IMDB 16a (about 640 facts) would keep both
// CPUs sampling for a second per operation; at 5% of 10 operations per
// second that left a two-CPU machine no headroom once its host slowed it,
// and the fixed phase's latencies moved several-fold between runs.
var (
	servePairs  = []pairSpec{{"tpch", "q3"}, {"tpch", "q10"}, {"tpch", "q18"}, {"imdb", "6b"}, {"imdb", "7c"}, {"imdb", "8d"}}
	approxQuery = pairSpec{"imdb", "15d"}
)

const (
	opExplain = iota
	opUpdate
	opApprox
)

var opNames = []string{"explain", "update", "approx"}

// factRef names a fact by content, as the wire API does.
type factRef struct {
	Relation string
	Values   []json.RawMessage
}

func (f factRef) key() string {
	b, _ := json.Marshal(f.Values) // RawMessage values always re-marshal
	return f.Relation + string(b)
}

// pairState is one served pair's client-side state: its request bodies,
// the facts its updates may delete, and the fact currently deleted.
type pairState struct {
	spec        pairSpec
	text        string
	explainBody []byte
	cands       []factRef // deleted in turn
	next        int

	mu      sync.Mutex // serializes the pair's update operations
	deleted *factRef
}

// serveEnv is one running in-process server and its client.
type serveEnv struct {
	dir    string
	dbs    map[string]*repro.Database
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	pairs  []*pairState
	approx []byte // request body of the approximate operations
}

// queryText returns a pair's query in the server's normalized form.
func queryText(p pairSpec) (string, error) {
	q, err := lookupQuery(p.dataset, p.query)
	if err != nil {
		return "", err
	}
	return q.String(), nil
}

// persistDatasets generates both data sets and moves them onto persistent
// sorted stores under dir with the default WAL policy.
func persistDatasets(cfg config, dir string) (map[string]*repro.Database, error) {
	policy, err := repro.ParseSyncPolicy(serveSync)
	if err != nil {
		return nil, err
	}
	dbs := make(map[string]*repro.Database)
	for _, name := range []string{"tpch", "imdb"} {
		sub := filepath.Join(dir, name)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
		d, err := generate(name, scaled(cfg, serveScale)).Migrate(repro.BackendSorted, sub)
		if err != nil {
			return nil, fmt.Errorf("migrating %s: %w", name, err)
		}
		if err := d.SetSyncPolicy(policy); err != nil {
			return nil, err
		}
		dbs[name] = d
	}
	return dbs, nil
}

// serveOptions are shapleyd's defaults on the sorted backend.
func serveOptions() repro.Options {
	return repro.Options{Timeout: serveTimeout, Storage: repro.BackendSorted}
}

// startServe is the serve-mixed set-up: generate and persist the data,
// start the server behind a loopback listener, and explain every pair once.
func startServe(ctx context.Context, cfg config, dir string) (*serveEnv, error) {
	e := &serveEnv{dir: dir}
	var err error
	if e.dbs, err = persistDatasets(cfg, dir); err != nil {
		return nil, err
	}
	e.srv, err = server.New(server.Config{
		Datasets: e.dbs,
		Options:  serveOptions(),
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		e.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.url = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	conns := parallel.Workers(0)
	e.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}

	for _, p := range servePairs {
		text, err := queryText(p)
		if err != nil {
			e.close()
			return nil, err
		}
		body, _ := json.Marshal(wire.ExplainRequest{Dataset: p.dataset, Query: text, Top: explainTop})
		e.pairs = append(e.pairs, &pairState{spec: p, text: text, explainBody: body})
	}
	text, err := queryText(approxQuery)
	if err != nil {
		e.close()
		return nil, err
	}
	e.approx, _ = json.Marshal(wire.ExplainRequest{Dataset: approxQuery.dataset, Query: text, Top: explainTop, NoPool: true, Mode: "approximate"})
	if err := e.warm(ctx, true, cfg.seed); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// warm explains every pair once; with pick it also chooses each pair's
// update facts: facts of the top-ranked lists of its small tuples (at most
// smallTupleFacts facts, as in the cold workloads) that no other pair
// lists, so two pairs never delete the same fact.
func (e *serveEnv) warm(ctx context.Context, pick bool, seed int64) error {
	owners := make(map[string]int)
	lists := make([][]factRef, len(e.pairs))
	for i, p := range e.pairs {
		resp, _, err := e.post(ctx, "/v1/explain", p.explainBody)
		if err != nil {
			return fmt.Errorf("warming %s/%s: %w", p.spec.dataset, p.spec.query, err)
		}
		if !pick {
			continue
		}
		var er wire.ExplainResponse
		if err := json.Unmarshal(resp, &er); err != nil {
			return err
		}
		seen := make(map[string]bool)
		for _, t := range er.Tuples {
			if t.NumFacts > smallTupleFacts {
				continue
			}
			for _, f := range t.Facts {
				ref := factRef{Relation: f.Relation}
				for _, v := range f.Tuple {
					raw, _ := json.Marshal(v)
					ref.Values = append(ref.Values, raw)
				}
				k := p.spec.dataset + ":" + ref.key()
				if seen[k] {
					continue
				}
				seen[k] = true
				owners[k]++
				lists[i] = append(lists[i], ref)
			}
		}
	}
	if !pick {
		return nil
	}
	for i, p := range e.pairs {
		p.cands = p.cands[:0]
		for _, ref := range lists[i] {
			if owners[p.spec.dataset+":"+ref.key()] == 1 {
				p.cands = append(p.cands, ref)
			}
		}
		sort.Slice(p.cands, func(a, b int) bool { return p.cands[a].key() < p.cands[b].key() })
		// Every run deletes the same two facts per pair, in an order the
		// seed draws: which facts a run deletes moves the update latencies,
		// and a run deletes only two to four per pair, so with more
		// candidates each seed would touch a different subset.
		p.cands = p.cands[:min(len(p.cands), updateFactsPerPair)]
		rand.New(rand.NewSource(seed*31+int64(i))).Shuffle(len(p.cands), func(a, b int) {
			p.cands[a], p.cands[b] = p.cands[b], p.cands[a]
		})
		if len(p.cands) == 0 {
			return fmt.Errorf("pair %s/%s has no fact of its own to update", p.spec.dataset, p.spec.query)
		}
	}
	return nil
}

// post sends one request and reads the whole response. A non-200 status
// is an error carrying the status.
func (e *serveEnv) post(ctx context.Context, route string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url+route, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return b, resp.StatusCode, fmt.Errorf("%s: status %d: %s", route, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, resp.StatusCode, nil
}

func (e *serveEnv) stats(ctx context.Context) (wire.StatsResponse, error) {
	var st wire.StatsResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.url+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// close stops the server, closes the stores and removes them.
func (e *serveEnv) close() {
	if e.hs != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		e.hs.Shutdown(sctx)
		cancel()
		<-e.served
	}
	if e.srv != nil {
		e.srv.Close()
	}
	for _, d := range e.dbs {
		d.Close()
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	os.RemoveAll(e.dir)
}

// op is one scheduled operation of the open loop.
type op struct {
	kind int
	pair int // index into servePairs; unused for opApprox
	due  time.Duration
}

// opResult is what running an operation produced.
type opResult struct {
	op
	lag      time.Duration // dispatcher lateness against the schedule
	latency  time.Duration // due time to completion
	failed   bool
	status   int
	bytes    int
	tuples   int
	rejected string // a correctness failure in the response

	// Times since the phase started: a worker picked the operation up at
	// begin and finished it at end; an update's write returned at applied.
	begin, end, applied time.Duration
}

// fixedSchedule lays out the fixed phase's operations, evenly spaced at
// rate, in cycles of 20 slots with fixed positions: 16 explains, 3 updates
// and 1 approx (80/15/5). Pairs are dealt from shuffled decks, so every
// pair gets the same share of updates. The schedule is the same for every
// seed, because which pair an update follows decides which sessions
// re-ground next; the seed draws the order of the facts the updates delete
// (see warm).
//
// Each update follows an explain of its own pair, as a client that reads a
// pair, changes it and reads it again. So an update waits for its own
// delta maintenance, and the re-grounding of a session whose sibling pair
// was updated lands in an explain, where explain_ms_p90 counts it. Without
// that, whether an update found its session stale depended on the deck,
// and the update latencies split into two groups with p75 between them.
//
// An approx operation keeps both CPUs busy sampling for over half a second
// and holds the IMDB read lock while it does, so an update overlapping it
// would wait for the lock or the CPUs. The update slots (one IMDB pair,
// then two TPC-H pairs) come before the approx slot, which ends before the
// next cycle's first update; explains overlap it.
func fixedSchedule(rate, seconds float64) []op {
	rng := rand.New(rand.NewSource(1))
	all, imdbPairs, tpchPairs := newDeck(rng, 0, 6), newDeck(rng, 3, 3), newDeck(rng, 0, 3)
	n := int(rate * seconds)
	ops := make([]op, n)
	for i := range ops {
		o := op{due: time.Duration(float64(i) / rate * float64(time.Second))}
		switch i % 20 {
		case 0:
			o.kind, o.pair = opExplain, imdbPairs.next()
		case 3, 6:
			o.kind, o.pair = opExplain, tpchPairs.next()
		case 1, 4, 7:
			o.kind, o.pair = opUpdate, ops[i-1].pair
		case 9:
			o.kind = opApprox
		default:
			o.kind, o.pair = opExplain, all.next()
		}
		ops[i] = o
	}
	return ops
}

// stepSchedule is one step of explain-only load at rate, pairs dealt from
// a shuffled deck.
func stepSchedule(rate, seconds float64) []op {
	all := newDeck(rand.New(rand.NewSource(int64(rate))), 0, len(servePairs))
	n := int(rate * seconds)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opExplain, pair: all.next(), due: time.Duration(float64(i) / rate * float64(time.Second))}
	}
	return ops
}

// deck deals the pair indexes base..base+n-1 in shuffled rounds: each
// index once per round.
type deck struct {
	rng     *rand.Rand
	base, n int
	cards   []int
}

func newDeck(rng *rand.Rand, base, n int) *deck { return &deck{rng: rng, base: base, n: n} }

func (d *deck) next() int {
	if len(d.cards) == 0 {
		d.cards = d.rng.Perm(d.n)
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return d.base + c
}

// phaseResult is one phase's operations and the generator's health.
type phaseResult struct {
	results []opResult
	backlog int // operations due but not started when the schedule ended
}

// runPhase drives an open loop: a dispatcher releases each operation at
// its due time into one queue that nproc workers drain. The client holds
// at most nproc connections, so each worker has one to itself. Latency
// counts from the due time, so waiting in the queue is part of it.
func (e *serveEnv) runPhase(ctx context.Context, ops []op, check bool, rec *recorder, opBase int) phaseResult {
	queue := make(chan int, len(ops)) // sized to the number of sends
	results := make([]opResult, len(ops))
	lags := make([]time.Duration, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < parallel.Workers(0); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				results[i] = e.runOp(ctx, ops[i], start, check, rec, opBase+i, w)
			}
		}(w)
	}
	for i, o := range ops {
		if d := time.Until(start.Add(o.due)); d > 0 {
			time.Sleep(d)
		}
		lags[i] = time.Since(start) - o.due
		queue <- i
	}
	backlog := len(queue)
	close(queue)
	wg.Wait()
	for i := range results {
		results[i].op, results[i].lag = ops[i], lags[i]
	}
	return phaseResult{results: results, backlog: backlog}
}

// runOp executes one operation and times it from its due time. With check
// it also decodes the response, counts its tuples and checks their
// marking; the stepped phase skips that so the client's decoding does not
// compete with the server for the CPUs. A failed operation's latency is
// the server's timeout, so shedding load never reads as a latency gain.
func (e *serveEnv) runOp(ctx context.Context, o op, start time.Time, check bool, rec *recorder, id, lane int) opResult {
	res := opResult{begin: time.Since(start)}
	due := start.Add(o.due)
	// The operation's root starts at its due time: the wait before a
	// worker picked it up is its client.queue child.
	root := rec.startAt(opNames[o.kind], spanRef{}, id, lane, due)
	rec.addDone("client.queue", root, id, lane, due, time.Now(), nil)
	// done stamps the operation's completion when its last response has
	// arrived, before the client decodes it.
	done := func() {
		res.latency = time.Since(due)
		res.end = time.Since(start)
	}
	fail := func(status int) {
		res.failed, res.status = true, status
	}
	switch o.kind {
	case opExplain:
		sp := rec.start("http.explain", root, id, lane)
		body, status, err := e.post(ctx, "/v1/explain", e.pairs[o.pair].explainBody)
		done()
		sp.end("bytes", len(body), "status", status)
		if err != nil {
			fail(status)
			break
		}
		res.bytes = len(body)
		if check {
			res.tuples, res.rejected = countTuples(body, false)
		}
	case opUpdate:
		p := e.pairs[o.pair]
		p.mu.Lock()
		req := wire.UpdateRequest{Dataset: p.spec.dataset, Query: p.text}
		var next *factRef
		if p.deleted == nil {
			f := p.cands[p.next%len(p.cands)]
			p.next++
			req.Deletes = []wire.DeleteSpec{{Relation: f.Relation, Values: f.Values}}
			next = &f
		} else {
			req.Inserts = []wire.InsertSpec{{Relation: p.deleted.Relation, Endogenous: true, Values: p.deleted.Values}}
		}
		body, _ := json.Marshal(req)
		sp := rec.start("http.update", root, id, lane)
		_, status, err := e.post(ctx, "/v1/update", body)
		sp.end("status", status)
		res.applied = time.Since(start)
		if err != nil {
			done()
		} else {
			p.deleted = next
			sp = rec.start("http.explain", root, id, lane)
			var resp []byte
			resp, status, err = e.post(ctx, "/v1/explain", p.explainBody)
			done()
			sp.end("bytes", len(resp), "status", status)
			if err == nil {
				res.tuples, res.rejected = countTuples(resp, false)
			}
		}
		p.mu.Unlock()
		if err != nil {
			fail(status)
		}
	case opApprox:
		sp := rec.start("http.explain", root, id, lane)
		body, status, err := e.post(ctx, "/v1/explain", e.approx)
		done()
		sp.end("bytes", len(body), "status", status, "approximate", true)
		if err != nil {
			fail(status)
			break
		}
		res.tuples, res.rejected = countTuples(body, true)
	}
	if res.failed {
		res.latency = max(res.latency, serveTimeout)
	}
	root.end("pair", o.pair)
	return res
}

// countTuples decodes an explain response, counts its tuples and checks
// their marking: with approx every tuple must be marked approximate, and
// otherwise every tuple must be exact.
func countTuples(body []byte, approx bool) (int, string) {
	var er wire.ExplainResponse
	if err := json.Unmarshal(body, &er); err != nil {
		return 0, "undecodable explain response: " + err.Error()
	}
	for _, t := range er.Tuples {
		if approx && (!t.Approximate || t.Method != "approximate") {
			return len(er.Tuples), fmt.Sprintf("approximate explain of %s returned a tuple marked %q", er.Query, t.Method)
		}
		if !approx && t.Method != "exact" {
			return len(er.Tuples), fmt.Sprintf("explain of %s returned a tuple marked %q", er.Query, t.Method)
		}
	}
	return len(er.Tuples), ""
}

// latencies returns the latencies in ms of the operations of a kind,
// failed ones at the server's timeout.
func latencies(rs []opResult, kind int) []float64 {
	var out []float64
	for _, r := range rs {
		if r.kind == kind {
			out = append(out, ms(r.latency))
		}
	}
	return out
}

// explainGroups splits the latencies in ms of a phase's explains. An
// explain is uncontended when no approximate operation was in flight while
// it ran: about a third of the fixed phase's explains overlap a sampling
// run that keeps both CPUs busy and take ten times longer, and how many
// overlap follows the sampling run's length, which moves with the host's
// speed. An uncontended explain is also quiet when no update of its data
// set was written since its pair's previous operation ended, so it did not
// re-ground a dirtied session. A median over all explains falls between
// these groups and jumps between runs.
func explainGroups(rs []opResult) (quiet, uncontended []float64) {
	for i, r := range rs {
		if r.kind != opExplain {
			continue
		}
		var prev time.Duration // the pair's previous operation's end
		for _, q := range rs[:i] {
			if q.kind != opApprox && q.pair == r.pair && q.end <= r.begin {
				prev = max(prev, q.end)
			}
		}
		contended, dirty := false, false
		for _, q := range rs {
			switch {
			case q.kind == opApprox && q.begin < r.end && q.end > r.begin:
				contended = true
			case q.kind == opUpdate && servePairs[q.pair].dataset == servePairs[r.pair].dataset &&
				q.applied > prev && q.applied < r.end:
				dirty = true
			}
		}
		if !contended {
			uncontended = append(uncontended, ms(r.latency))
			if !dirty {
				quiet = append(quiet, ms(r.latency))
			}
		}
	}
	return quiet, uncontended
}

// slowOp describes one of a phase's slowest operations, for the report.
type slowOp struct {
	Index     int     `json:"index"`
	Kind      string  `json:"kind"`
	Pair      int     `json:"pair"`
	LatencyMs float64 `json:"latency_ms"`
}

// slowest lists the n slowest operations of a phase, slowest first.
func slowest(rs []opResult, n int) []slowOp {
	out := make([]slowOp, len(rs))
	for i, r := range rs {
		out[i] = slowOp{Index: i, Kind: opNames[r.kind], Pair: r.pair, LatencyMs: ms(r.latency)}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].LatencyMs > out[b].LatencyMs })
	return out[:min(n, len(out))]
}

// phaseHealth is the generator's own health over one phase. The generator
// never retries: a refused request (429 or 503) counts as failed, so
// Retried stays 0 and is reported for the record.
type phaseHealth struct {
	Sent, Succeeded, Failed, Retried int
	LagP99Ms                         float64
}

func health(rs []opResult) phaseHealth {
	h := phaseHealth{Sent: len(rs)}
	lags := make([]float64, len(rs))
	for i, r := range rs {
		lags[i] = ms(r.lag)
		if r.failed {
			h.Failed++
		} else {
			h.Succeeded++
		}
	}
	h.LagP99Ms = percentile(lags, 99)
	return h
}

// stepOutcome is one rate step of the stepped phase.
type stepOutcome struct {
	Rate    float64 `json:"rate"`
	P99Ms   float64 `json:"p99_ms"`
	Backlog int     `json:"backlog"`
	Passed  bool    `json:"passed"`
}

// knee interpolates the highest offered rate whose explain p99 stays
// within the limit, between the highest passing step ok and the lowest
// failing step fail above it; either may be nil when the search found no
// such step. p99 rises steeply past the knee, so the interpolation is
// linear in log(p99).
func knee(ok, fail *stepOutcome) float64 {
	switch {
	case ok == nil && fail == nil:
		return 0
	case fail == nil:
		return ok.Rate
	case ok == nil:
		return fail.Rate * latencyLimitMs / max(fail.P99Ms, latencyLimitMs)
	case fail.P99Ms <= latencyLimitMs:
		// The step failed on its backlog or on errors, not on latency.
		return (ok.Rate + fail.Rate) / 2
	}
	frac := 0.0
	if fail.P99Ms > ok.P99Ms && ok.P99Ms > 0 {
		frac = math.Log(latencyLimitMs/ok.P99Ms) / math.Log(fail.P99Ms/ok.P99Ms)
	}
	frac = min(1, max(0, frac))
	return ok.Rate + frac*(fail.Rate-ok.Rate)
}

// searchKnee runs one search of the stepped phase: explain-only steps at
// rates that grow until one fails, then bisect between the highest passing
// and the lowest failing rate. step runs one step at a rate.
func searchKnee(step func(rate float64) stepOutcome) (float64, []stepOutcome) {
	var ok, fail *stepOutcome
	var steps []stepOutcome
	rate := stepStart
	for range maxSteps {
		s := step(rate)
		steps = append(steps, s)
		if s.Passed {
			ok = &s
		} else {
			fail = &s
		}
		switch {
		case fail == nil:
			rate *= stepGrowth
		case ok == nil:
			rate /= 2
		case fail.Rate-ok.Rate <= stepResolution*ok.Rate:
			return knee(ok, fail), steps
		default:
			rate = (ok.Rate + fail.Rate) / 2
		}
	}
	return knee(ok, fail), steps
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// runServe is the serve-mixed workload, traced or not. The load phases
// run identically in both; a traced run adds client-side spans, the
// server's counter deltas and an in-process replay of the fixed schedule.
func runServe(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	v := out.values
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}

	env, setup, err := timedStartServe(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	setups := []float64{setup}

	// At least one full 20-slot cycle, so every operation kind runs.
	fixedSeconds := max(cfg.seconds*fixedShare, 20/fixedRate)
	before, err := env.stats(ctx)
	if err != nil {
		return nil, err
	}
	walBefore := dirBytes(env.dir)
	fixedOps := fixedSchedule(fixedRate, fixedSeconds)
	fixed := env.runPhase(ctx, fixedOps, true, rec, 0)
	walAfter := dirBytes(env.dir)
	after, err := env.stats(ctx)
	if err != nil {
		return nil, err
	}
	v["peak_rss_mb"] = peakRSSMB()

	fh := health(fixed.results)
	out.attempted += fh.Sent
	out.failed += fh.Failed
	if fh.LagP99Ms > maxLagMs {
		out.problem("run invalid: the generator fell behind its schedule (lag p99 %.1f ms > the %.0f ms between operations)", fh.LagP99Ms, maxLagMs)
	}
	var tuples, explains, updates int
	var sizes []float64
	for _, r := range fixed.results {
		if r.rejected != "" {
			out.problem("%s", r.rejected)
		}
		if r.failed {
			// At its fixed rate the server has headroom: any error, shed or
			// timeout there is a fault, not load.
			out.problem("fixed phase: %s of pair %d failed with status %d", opNames[r.kind], r.pair, r.status)
			continue
		}
		switch r.kind {
		case opExplain:
			tuples += r.tuples
			explains++
			sizes = append(sizes, float64(r.bytes))
		case opUpdate:
			updates++
		}
	}
	quiet, uncontended := explainGroups(fixed.results)
	if len(quiet) == 0 {
		out.problem("fixed phase: no explain ran on a clean session without an approximate operation in flight")
	}
	v["explain_ms_p50"] = percentile(quiet, 50)
	v["explain_ms_p90"] = percentile(uncontended, 90)
	v["update_ms_p50"] = percentile(latencies(fixed.results, opUpdate), 50)
	v["update_ms_p75"] = percentile(latencies(fixed.results, opUpdate), 75)
	v["approx_ms_p50"] = percentile(latencies(fixed.results, opApprox), 50)
	v["approx_ms_p90"] = percentile(latencies(fixed.results, opApprox), 90)

	// Stepped phase: explain-only load at rising rates until the p99 limit
	// or a growing backlog stops it. Sessions dirtied by the fixed phase's
	// updates are re-warmed first so the first step does not pay for them.
	if err := env.warm(ctx, false, 0); err != nil {
		return nil, err
	}
	var steps [][]stepOutcome
	var stepResults []opResult
	stepLen := stepSeconds
	if cfg.tiny {
		stepLen = 0.3
	}
	step := func(rate float64) stepOutcome {
		ph := env.runPhase(ctx, stepSchedule(rate, stepLen), false, rec, len(fixedOps)+len(stepResults))
		stepResults = append(stepResults, ph.results...)
		s := stepOutcome{Rate: rate, P99Ms: percentile(latencies(ph.results, opExplain), 99), Backlog: ph.backlog}
		// A backlog longer than the limit's worth of arrivals is a queue
		// that grows faster than the latency limit allows.
		s.Passed = health(ph.results).Failed == 0 && s.P99Ms <= latencyLimitMs && float64(ph.backlog) <= rate*latencyLimitMs/1000
		return s
	}
	for range sweeps {
		k, search := searchKnee(step)
		steps = append(steps, search)
		v["max_rate_rps"] = max(v["max_rate_rps"], k)
	}
	// Exact tuples the server can serve per second within the latency
	// limit: the fixed phase's tuples per explain response at max_rate_rps.
	if explains > 0 {
		v["tuples_per_s"] = v["max_rate_rps"] * float64(tuples) / float64(explains)
	}
	sh := health(stepResults)
	out.attempted += sh.Sent
	out.failed += sh.Failed

	// Correctness: restore every outstanding deletion so the database nets
	// to where it started, then compare every pair's served exact values
	// with a cold explain of a freshly generated copy.
	for _, p := range env.pairs {
		if p.deleted == nil {
			continue
		}
		body, _ := json.Marshal(wire.UpdateRequest{Dataset: p.spec.dataset, Query: p.text,
			Inserts: []wire.InsertSpec{{Relation: p.deleted.Relation, Endogenous: true, Values: p.deleted.Values}}})
		if _, _, err := env.post(ctx, "/v1/update", body); err != nil {
			return nil, fmt.Errorf("restoring %s/%s: %w", p.spec.dataset, p.spec.query, err)
		}
		p.deleted = nil
	}
	if err := gateServed(ctx, cfg, env, out); err != nil {
		return nil, err
	}

	report := map[string]any{
		"fixed": fh, "step": sh, "steps": steps, "fixed_ops": len(fixedOps), "setups_s": setups,
		"slowest": slowest(fixed.results, 12),
		"latencies_ms": map[string][]float64{
			"explain": latencies(fixed.results, opExplain),
			"update":  latencies(fixed.results, opUpdate),
			"approx":  latencies(fixed.results, opApprox),
		},
		"pool": after.Pool, "cache": after.Cache, "metrics": v,
	}
	if cfg.trace {
		if err := traceServe(ctx, cfg, env, rec, out, before, after, fixed, stepResults, fixedOps, walAfter-walBefore, updates, sizes); err != nil {
			return nil, err
		}
		report["layers"] = summarize(rec.snapshot())
	}
	// The remaining set-ups run after the measured phases, so the peak RSS
	// above is the workload's alone.
	env.close()
	env = nil
	for len(setups) < serveSetups {
		e, setup, err := timedStartServe(ctx, cfg)
		if err != nil {
			return nil, err
		}
		e.close()
		setups = append(setups, setup)
	}
	v["setup_s"] = median(setups)
	props := map[string]any{
		"pairs": len(servePairs), "response_bytes_p50": percentile(sizes, 50),
		"fixed_ops": len(fixedOps), "updates": updates, "gomaxprocs": parallel.Workers(0),
	}
	if lookups := after.Cache.Hits - before.Cache.Hits + after.Cache.Misses - before.Cache.Misses; lookups > 0 {
		props["cache_renamed_share"] = float64(after.Cache.RenamedHits-before.Cache.RenamedHits) / float64(lookups)
	}
	printProperties(cfg, props)
	report["inputs"] = props
	report["notes"] = out.notes
	if _, err := writeReport(cfg, "report", report); err != nil {
		return nil, err
	}
	return out, nil
}

// timedStartServe runs startServe in a fresh temporary directory and
// returns the running environment with its set-up time in seconds.
func timedStartServe(ctx context.Context, cfg config) (*serveEnv, float64, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "serve-")
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	env, err := startServe(ctx, cfg, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	return env, time.Since(t0).Seconds(), nil
}

// gateServed compares every pair's served values, by fact content, with a
// cold repro.Explain on a freshly generated copy of the data.
func gateServed(ctx context.Context, cfg config, env *serveEnv, out *outcome) error {
	fresh := map[string]*repro.Database{}
	for _, name := range []string{"tpch", "imdb"} {
		fresh[name] = generate(name, scaled(cfg, serveScale))
	}
	for _, p := range env.pairs {
		body, _ := json.Marshal(wire.ExplainRequest{Dataset: p.spec.dataset, Query: p.text})
		resp, _, err := env.post(ctx, "/v1/explain", body)
		if err != nil {
			return fmt.Errorf("gate explain %s/%s: %w", p.spec.dataset, p.spec.query, err)
		}
		var er wire.ExplainResponse
		if err := json.Unmarshal(resp, &er); err != nil {
			return err
		}
		q, err := lookupQuery(p.spec.dataset, p.spec.query)
		if err != nil {
			return err
		}
		d := fresh[p.spec.dataset]
		es, err := repro.Explain(ctx, d, q, repro.Options{})
		if err != nil {
			return err
		}
		if msg := compareValues(contentValues(er.Tuples), contentValues(wire.EncodeExplanations(d, es, 0))); msg != "" {
			out.problem("%s/%s: served values differ from a cold explain: %s", p.spec.dataset, p.spec.query, msg)
		}
	}
	return nil
}

// contentValues lists a response's exact values keyed by tuple and fact
// content (fact IDs differ once a fact was deleted and re-inserted),
// sorted.
func contentValues(ts []wire.TupleExplanation) []string {
	var out []string
	for _, t := range ts {
		tk, _ := json.Marshal(t.Tuple)
		for _, f := range t.Facts {
			fk, _ := json.Marshal(f.Tuple)
			out = append(out, t.Method+"\t"+string(tk)+"\t"+f.Relation+string(fk)+"\t"+f.ValueRat)
		}
	}
	sort.Strings(out)
	return out
}

// compareValues reports the first difference between two sorted value
// lists, or "" when they are identical.
func compareValues(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("got %q, want %q", got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("got %d values, want %d", len(got), len(want))
	}
	return ""
}

// traceServe fills the per-layer metrics of a traced serve-mixed run: the
// server's counter deltas over the fixed phase, the generator's health per
// phase, and an in-process replay of the fixed schedule's first operations
// through the layers the server calls.
func traceServe(ctx context.Context, cfg config, env *serveEnv, rec *recorder, out *outcome,
	before, after wire.StatsResponse, fixed phaseResult, stepResults []opResult, fixedOps []op,
	walGrowth int64, updates int, sizes []float64) error {
	v := out.values
	pool := after.Pool
	opens, reuses := pool.Opens-before.Pool.Opens, pool.Reuses-before.Pool.Reuses
	if opens+reuses > 0 {
		v["server.pool_reuse_ratio"] = float64(reuses) / float64(opens+reuses)
	}
	v["server.pool_evictions"] = float64(pool.Evictions - before.Pool.Evictions)
	if b := pool.UpdateBatches - before.Pool.UpdateBatches; b > 0 {
		v["server.update_batch_requests"] = float64(pool.UpdateRequests-before.Pool.UpdateRequests) / float64(b)
	}
	var sheds int64
	for _, r := range after.Routes {
		sheds += r.Sheds
	}
	for _, r := range before.Routes {
		sheds -= r.Sheds
	}
	v["server.shed"] = float64(sheds)
	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	if hits+misses > 0 {
		v["dnnf.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	v["dnnf.cache_renamed_hits"] = float64(after.Cache.RenamedHits - before.Cache.RenamedHits)
	v["dnnf.cache_misses"] = float64(misses)
	if updates > 0 {
		v["db.wal_bytes_per_update"] = float64(walGrowth) / float64(updates)
	}
	v["wire.response_bytes_p50"] = percentile(sizes, 50)
	for name, rs := range map[string][]opResult{"fixed": fixed.results, "step": stepResults} {
		h := health(rs)
		v["load."+name+".sent"] = float64(h.Sent)
		v["load."+name+".succeeded"] = float64(h.Succeeded)
		v["load."+name+".failed"] = float64(h.Failed)
		v["load."+name+".retried"] = float64(h.Retried)
		v["load."+name+".lag_ms_p99"] = h.LagP99Ms
	}

	ops := fixedOps
	if len(ops) > replayOps {
		ops = ops[:replayOps]
	}
	untraced, _, err := replay(ctx, cfg, ops, env.pairs, nil, 0)
	if err != nil {
		return err
	}
	base := len(fixedOps) + len(stepResults)
	traced, rs, err := replay(ctx, cfg, ops, env.pairs, rec, base)
	if err != nil {
		return err
	}
	for k, x := range rs {
		v[k] = x
	}
	var wall, cov time.Duration
	spans := rec.snapshot()
	for _, name := range opNames {
		w, c := rootCoverage(spans, "replay."+name)
		wall, cov = wall+w, cov+c
	}
	if wall > 0 {
		v["trace.coverage"] = float64(cov) / float64(wall)
	}
	v["trace.unattributed_ms"] = ms(wall - cov)
	v["trace.overhead_ms"] = ms(traced - untraced)

	tracePath := fmt.Sprintf("%s/trace-%s-seed%d.json", cfg.outDir, cfg.workload, cfg.seed)
	if err := writeChromeTrace(tracePath, rec.snapshot()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: chrome trace %s\n", tracePath)
	return nil
}

// findFact returns the ID of the fact with a reference's content.
func findFact(d *repro.Database, f factRef) (repro.FactID, error) {
	vals, err := wire.DecodeValues(f.Values)
	if err != nil {
		return 0, err
	}
	if rel := d.Relation(f.Relation); rel != nil {
		for _, fact := range rel.Facts() {
			if fact.Tuple.Equal(repro.Tuple(vals)) {
				return fact.ID, nil
			}
		}
	}
	return 0, fmt.Errorf("no fact %s%s to update", f.Relation, repro.Tuple(vals))
}

// replay runs a schedule's operations back to back in this process on a
// fresh persistent copy of the data, through the calls the server makes:
// Session.ApplyContext and Session.Explain on one session per pair,
// approximate-mode sessions, and wire.EncodeExplanations plus the JSON
// marshal. Updates delete and re-insert each pair's update facts, by
// content and in the order the served run did. Each session call runs under an internal trace root so its
// stage spans (ground, tseytin, compile, shapley, approx) are attributed.
// It returns the replay's wall time and, when rec is non-nil, the
// per-layer metrics. session.dirty_tuples counts the tuples an update's
// follow-up explain recomputed: SessionStats.CachedExplanations counts
// every cached explanation, stale ones included, so Stats cannot tell.
func replay(ctx context.Context, cfg config, ops []op, pairs []*pairState, rec *recorder, opBase int) (time.Duration, map[string]float64, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "replay-")
	if err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(dir)
	dbs, err := persistDatasets(cfg, dir)
	if err != nil {
		return 0, nil, err
	}
	defer func() {
		for _, d := range dbs {
			d.Close()
		}
	}()
	m := map[string]float64{}
	stage := map[string]float64{}
	var decisions, nodes, clauses, answers, samples, recomputed int
	var facts []float64
	var dirty []float64
	// call runs fn under an internal trace root and folds its stage spans
	// into the totals and, when tracing, into the recorder.
	call := func(name string, root spanRef, id int, fn func(context.Context) error) error {
		sp := rec.start(name, root, id, 0)
		t0 := time.Now()
		tctx, troot := trace.NewRoot(ctx, name, nil)
		err := fn(tctx)
		troot.End()
		sp.end()
		if rec == nil {
			return err
		}
		troot.Snapshot().Walk(func(n *trace.SpanNode) {
			switch n.Name {
			case "ground", "tseytin", "compile", "shapley", "approx":
				stage[n.Name] += n.DurationMs
				start := t0.Add(time.Duration(n.StartMs * float64(time.Millisecond)))
				rec.addDone("stage."+n.Name, sp, id, 1, start, start.Add(time.Duration(n.DurationMs*float64(time.Millisecond))), n.Attrs)
			}
			if _, cached := n.Attrs["cached"]; n.Name == "tuple" && !cached {
				recomputed++
			}
			if x, ok := n.Attrs["clauses"].(int); ok && n.Name == "tseytin" {
				clauses += x
			}
			if x, ok := n.Attrs["decisions"].(int); ok && n.Name == "dnnf" {
				decisions += x
			}
			if x, ok := n.Attrs["nodes"].(int); ok && n.Name == "compile" {
				nodes += x
			}
		})
		return err
	}

	opts := serveOptions()
	sessions := make([]*repro.Session, len(servePairs))
	defer func() {
		for _, s := range sessions {
			if s != nil {
				s.Close()
			}
		}
	}()
	texts := make([]string, len(servePairs))
	next := make([]int, len(servePairs))
	deleted := make([]*factRef, len(servePairs))
	start := time.Now()
	explain := func(i int, root spanRef, id int) error {
		var es []repro.TupleExplanation
		if err := call("session.explain", root, id, func(c context.Context) (err error) {
			es, err = sessions[i].Explain(c)
			return err
		}); err != nil {
			return err
		}
		sp := rec.start("wire.encode", root, id, 0)
		d := dbs[servePairs[i].dataset]
		_, err := json.Marshal(wire.ExplainResponse{Query: texts[i], Tuples: wire.EncodeExplanations(d, es, explainTop)})
		sp.end()
		return err
	}
	for i, p := range servePairs {
		q, err := lookupQuery(p.dataset, p.query)
		if err != nil {
			return 0, nil, err
		}
		texts[i] = q.String()
		root := rec.start("replay.open", spanRef{}, opBase+i, 0)
		if err := call("session.open", root, opBase+i, func(c context.Context) (err error) {
			sessions[i], err = repro.OpenContext(c, dbs[p.dataset], q, opts)
			return err
		}); err != nil {
			return 0, nil, err
		}
		var es []repro.TupleExplanation
		if err := call("session.explain", root, opBase+i, func(c context.Context) (err error) {
			es, err = sessions[i].Explain(c)
			return err
		}); err != nil {
			return 0, nil, err
		}
		root.end()
		answers += len(es)
		for _, e := range es {
			facts = append(facts, float64(e.NumFacts))
		}
	}
	for j, o := range ops {
		id := opBase + len(servePairs) + j
		root := rec.start("replay."+opNames[o.kind], spanRef{}, id, 0)
		switch o.kind {
		case opExplain:
			err = explain(o.pair, root, id)
		case opUpdate:
			s, d := sessions[o.pair], dbs[servePairs[o.pair].dataset]
			var mut repro.Mutation
			if f := deleted[o.pair]; f != nil {
				vals, verr := wire.DecodeValues(f.Values)
				if verr != nil {
					return 0, nil, verr
				}
				mut = repro.InsertOp(f.Relation, true, vals...)
				deleted[o.pair] = nil
			} else {
				cands := pairs[o.pair].cands
				f := cands[next[o.pair]%len(cands)]
				next[o.pair]++
				// The server resolves a delete by content the same way.
				sp := rec.start("db.resolve", root, id, 0)
				fid, ferr := findFact(d, f)
				sp.end()
				if ferr != nil {
					return 0, nil, ferr
				}
				deleted[o.pair] = &f
				mut = repro.DeleteOp(fid)
			}
			sp := rec.start("session.apply", root, id, 0)
			_, err = s.ApplyContext(ctx, []repro.Mutation{mut})
			sp.end()
			if err == nil {
				// Tuples the follow-up explain recomputed rather than served
				// from the session cache: the session's tuple spans say.
				before := recomputed
				err = explain(o.pair, root, id)
				dirty = append(dirty, float64(recomputed-before))
			}
		case opApprox:
			p := approxQuery
			q, qerr := lookupQuery(p.dataset, p.query)
			if qerr != nil {
				return 0, nil, qerr
			}
			var s *repro.Session
			if err = call("session.open", root, id, func(c context.Context) (err error) {
				s, err = repro.OpenContext(c, dbs[p.dataset], q, opts)
				return err
			}); err == nil {
				err = call("core.approx", root, id, func(c context.Context) error {
					es, err := s.ExplainWithBudget(c, repro.ExplainBudget{Mode: repro.ModeApproximate})
					for _, e := range es {
						samples += e.Samples
					}
					return err
				})
				s.Close()
			}
		}
		root.end()
		if err != nil {
			return 0, nil, fmt.Errorf("replay %s: %w", opNames[o.kind], err)
		}
	}
	wall := time.Since(start)
	if rec == nil {
		return wall, nil, nil
	}
	sums := summarize(rec.snapshot())
	total := func(name string) float64 {
		if ls := sums[name]; ls != nil {
			return ls.TotalMs
		}
		return 0
	}
	m["engine.ground_ms"] = stage["ground"]
	m["cnf.tseytin_ms"] = stage["tseytin"]
	m["dnnf.compile_ms"] = stage["compile"]
	m["core.shapley_ms"] = stage["shapley"]
	m["core.approx_ms"] = total("core.approx")
	m["core.approx_samples"] = float64(samples)
	m["session.open_ms"] = total("session.open")
	m["session.explain_ms"] = total("session.explain")
	m["session.apply_ms"] = total("session.apply")
	m["session.dirty_tuples"] = median(dirty)
	m["wire.encode_ms"] = total("wire.encode")
	m["cnf.clauses"] = float64(clauses)
	m["dnnf.decisions"] = float64(decisions)
	m["dnnf.nodes"] = float64(nodes)
	m["engine.answers"] = float64(answers)
	m["engine.lineage_facts_p50"] = percentile(facts, 50)
	m["engine.lineage_facts_max"] = percentile(facts, 100)
	small := 0
	for _, f := range facts {
		if f <= 63 {
			small++
		}
	}
	m["engine.share_n_le_63"] = share(small, len(facts))
	return wall, m, nil
}
