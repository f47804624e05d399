// Hybrid example: Section 6.3's strategy on a hard instance.
//
// We build a lineage whose knowledge compilation is expensive — a dense
// blocking-pairs formula over many facts — and explain it under several
// timeouts. Small budgets fall back to CNF Proxy (millisecond ranking,
// inexact values); a generous budget completes exactly. The example also
// shows that the proxy's top-ranked facts match the exact top facts, which
// is exactly the use the paper recommends it for.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/db"
)

// hardLineage builds the ELin of a query with n "routes" of 2 hops each,
// plus chains that share facts across routes — shaped like the one-stop
// flights query but much denser, so the compiled circuit grows quickly.
func hardLineage(n int) (*circuit.Node, []db.FactID) {
	b := circuit.NewBuilder()
	var disjuncts []*circuit.Node
	// Facts 1..n are "left" hops, n+1..2n "right" hops: every pair forms a
	// route, so the DNF has n² conjunctions over 2n facts.
	for i := 1; i <= n; i++ {
		for j := n + 1; j <= 2*n; j++ {
			disjuncts = append(disjuncts,
				b.And(b.Variable(circuit.Var(i)), b.Variable(circuit.Var(j))))
		}
	}
	// A few "direct" facts make the instance asymmetric.
	for i := 2*n + 1; i <= 2*n+2; i++ {
		disjuncts = append(disjuncts, b.Variable(circuit.Var(i)))
	}
	elin := b.Or(disjuncts...)
	endo := make([]db.FactID, 0, 2*n+2)
	for _, v := range circuit.Vars(elin) {
		endo = append(endo, db.FactID(v))
	}
	return elin, endo
}

func main() {
	elin, endo := hardLineage(10)
	fmt.Printf("hard lineage: %d facts, %d gates\n\n", len(endo), circuit.Size(elin))

	for _, timeout := range []time.Duration{
		500 * time.Microsecond, 5 * time.Millisecond, 60 * time.Second,
	} {
		opts := core.PipelineOptions{CompileTimeout: timeout, ShapleyTimeout: timeout}
		res, err := core.Hybrid(context.Background(), elin, endo, opts, core.ExplainBudget{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeout %-10v → method=%-9v elapsed=%-12v top facts: %v\n",
			timeout, res.Method, res.Elapsed.Round(time.Microsecond), res.Ranking[:4])
	}

	// Quality check: proxy ranking vs exact ranking on this instance.
	exact, err := core.Hybrid(context.Background(), elin, endo, core.PipelineOptions{}, core.ExplainBudget{})
	if err != nil {
		log.Fatal(err)
	}
	starved := core.PipelineOptions{CompileTimeout: time.Nanosecond, ShapleyTimeout: time.Nanosecond, CompileMaxNodes: 1}
	proxy, err := core.Hybrid(context.Background(), elin, endo, starved, core.ExplainBudget{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexact top-4:  %v\n", exact.Ranking[:4])
	fmt.Printf("proxy top-4:  %v\n", proxy.Ranking[:4])
	same := 0
	exactTop := map[db.FactID]bool{}
	for _, f := range exact.Ranking[:4] {
		exactTop[f] = true
	}
	for _, f := range proxy.Ranking[:4] {
		if exactTop[f] {
			same++
		}
	}
	fmt.Printf("precision@4 of the proxy ranking: %.2f\n", float64(same)/4)
}
