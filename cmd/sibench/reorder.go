package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/backendtest"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// reorder compares, per query, the analysis-emitted conjunct order with
// the cost-based optimizer's order, with and without live cardinality
// statistics: average TupleReads per call (the paper's currency) and
// wall clock per call, over the same binding sequence on the same
// backend. Q1–Q4 are the conformance queries (their chase plans are
// already greedily ordered, so Q1 and Q4 match); Q5 — restaurants
// visited by non-NYC friends — is the showcase whose safe negation keeps
// the chase away.
func reorder(quick bool) ([]*bench.Table, error) {
	persons, iters := 10000, 4000
	if quick {
		persons, iters = 2000, 1500
	}
	s, err := openSocial(persons, *shards)
	if err != nil {
		return nil, err
	}
	modes := []core.OptimizerMode{core.OptimizerOff, core.OptimizerOn, core.OptimizerStats}
	engs := make([]*core.Engine, len(modes))
	for i, mode := range modes {
		engs[i] = core.NewEngine(s.st)
		engs[i].SetOptimizer(mode)
	}
	bindPerson := func(i int) query.Bindings { return bindP(int64(i % persons)) }
	queries := []struct {
		name string
		src  string
		ctrl []string
		bind func(i int) query.Bindings
	}{
		{"Q1", workload.Q1Src, []string{"p"}, bindPerson},
		{"Q2", workload.Q2Src, []string{"p"}, bindPerson},
		{"Q3", workload.Q3Src, []string{"p", "yy"}, func(i int) query.Bindings {
			return query.Bindings{"p": relation.Int(int64(i % persons)), "yy": relation.Int(int64(s.cfg.Years[i%len(s.cfg.Years)]))}
		}},
		{"Q4", backendtest.Q4Src, []string{"p"}, bindPerson},
		{"Q5", backendtest.Q5Src, []string{"p"}, bindPerson},
	}

	t := bench.NewTable("reorder",
		fmt.Sprintf("conjunct reordering: |D| = %d (%s backend), %d executions per cell", s.st.Size(), s.backend, iters),
		"query", "reads/op (anal.)", "reads/op (cost)", "reads/op (stats)", "µs/op (anal.)", "µs/op (cost)", "µs/op (stats)")
	ctx := context.Background()
	names := make([]string, len(queries))
	reads := make([][]int64, len(modes)) // reads[mode][query], summed over iters
	for qi, qd := range queries {
		names[qi] = qd.name
		q, err := parseServing(qd.src)
		if err != nil {
			return nil, err
		}
		// One row: the query, reads/op per mode, then µs/op per mode.
		cells := make([]any, 1+2*len(modes))
		cells[0] = qd.name
		for mi, eng := range engs {
			prep, err := eng.Prepare(q, query.NewVarSet(qd.ctrl...))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", qd.name, err)
			}
			var r int64
			start := time.Now()
			for i := 0; i < iters; i++ {
				ans, err := prep.Exec(ctx, qd.bind(i), core.WithoutTrace())
				if err != nil {
					return nil, fmt.Errorf("%s optimizer %s: %w", qd.name, modes[mi], err)
				}
				r += ans.Cost.TupleReads
			}
			reads[mi] = append(reads[mi], r)
			cells[1+mi] = float64(r) / float64(iters)
			cells[1+len(modes)+mi] = time.Since(start) / time.Duration(iters)
		}
		t.Row(cells...)
	}
	for mi := 1; mi < len(modes); mi++ {
		if err := reorderVerdict(names, reads[0], reads[mi]); err != nil {
			return []*bench.Table{t}, fmt.Errorf("optimizer %s: %w", modes[mi], err)
		}
	}
	t.Notes = "cost-ordered plans never read more than analysis order; at least one query reads strictly less."
	return []*bench.Table{t}, nil
}

// reorderVerdict is the reorder gate over per-query total reads: no query
// may read more under the cost-based order than under the analysis
// order, and at least one must read strictly less.
func reorderVerdict(queries []string, analysis, cost []int64) error {
	improved := false
	for i, q := range queries {
		if cost[i] > analysis[i] {
			return fmt.Errorf("%s: cost-ordered plan read %d, analysis order %d", q, cost[i], analysis[i])
		}
		if cost[i] < analysis[i] {
			improved = true
		}
	}
	if !improved {
		return errors.New("no query read less under the cost-based order than under analysis order")
	}
	return nil
}
