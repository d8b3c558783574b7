package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/access"
	"repro/internal/backendtest"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/workload"
)

// viewsBench measures what materialized views buy the serving path
// (Section 6). Two views are created through Engine.CreateView:
//
//   - VNYC pre-joins dated visits with the NYC person filter; the
//     planner serves Q7 from it because the view plan's static bound
//     strictly undercuts the base plan's.
//   - VFol inverts the friendship relation and *rescues* Q6, which is
//     not controllable over the base relations at all (Theorem 6.1).
//
// It reports reads/op for the base plan vs the view plan on Q7, reads/op
// for the rescued Q6, and the rescued-query rate over the serving pack —
// before and after a randomized mixed commit stream that the engine
// maintains the views through.
func viewsBench(quick bool) ([]*bench.Table, error) {
	persons, commits, ops := 10000, 600, 64
	if quick {
		persons, commits, ops = 2000, 200, 32
	}
	s, err := openSocial(persons, *shards)
	if err != nil {
		return nil, err
	}
	hot := s.hotPersons(ops)
	stream := s.commitStream(commits, hot)
	// One engine serves and commits; a second, view-free engine over the
	// same backend keeps the base plan available as the per-execution
	// correctness and cost baseline.
	eng, engBase := core.NewEngine(s.st), core.NewEngine(s.st)
	ctx := context.Background()

	q6, err := parseServing(backendtest.Q6Src)
	if err != nil {
		return nil, err
	}
	q7, err := parseServing(backendtest.Q7Src)
	if err != nil {
		return nil, err
	}

	// Base service: Q6 has no bounded plan at all; Q7 does.
	if _, err := eng.Prepare(q6, query.NewVarSet("p")); !errors.Is(err, core.ErrNotControllable) {
		return nil, fmt.Errorf("Q6 over base relations: got %w, want ErrNotControllable", err)
	}
	prep7Base, err := engBase.Prepare(q7, query.NewVarSet("p"))
	if err != nil {
		return nil, err
	}

	if _, err := eng.CreateView(mustParseCQ(backendtest.VFolSrc),
		access.Plain("VFol", []string{"p"}, s.cfg.MaxFriends+64, 1)); err != nil {
		return nil, err
	}
	if _, err := eng.CreateView(mustParseCQ(backendtest.VNYCSrc)); err != nil {
		return nil, err
	}
	prep7View, err := eng.Prepare(q7, query.NewVarSet("p"))
	if err != nil {
		return nil, err
	}
	if len(prep7View.Plan().Views) == 0 {
		return nil, fmt.Errorf("Q7: optimizer did not pick the view plan (views %v)", prep7View.Plan().Views)
	}
	if vb, bb := prep7View.Plan().Bound.Reads, prep7Base.Plan().Bound.Reads; vb > bb {
		return nil, fmt.Errorf("Q7: view plan bound %d strictly worse than base plan bound %d", vb, bb)
	}
	prep6, err := eng.Prepare(q6, query.NewVarSet("p"))
	if err != nil {
		return nil, fmt.Errorf("Q6 with views: %w", err)
	}
	if !prep6.Plan().Rescued {
		return nil, fmt.Errorf("Q6 plan not marked rescued")
	}

	// Each view-served Q7 answer is checked against the base plan; a
	// sample of rescued Q6 answers against the naive full-scan oracle.
	checkQ7 := func(i int, fixed query.Bindings, ans *core.Answer) error {
		base, err := prep7Base.Exec(ctx, fixed, core.WithoutTrace())
		if err != nil {
			return err
		}
		if !ans.Tuples.Equal(base.Tuples) {
			return fmt.Errorf("Q7 p=%v: view plan diverged from base plan", fixed["p"])
		}
		return nil
	}
	checkQ6 := func(i int, fixed query.Bindings, ans *core.Answer) error {
		if i >= 8 {
			return nil // the full-scan oracle is O(|D|) per binding
		}
		naive, err := eval.Answers(eval.NewStoreSource(s.st, &store.ExecStats{}), q6, fixed)
		if err != nil {
			return err
		}
		if !ans.Tuples.Equal(naive) {
			return fmt.Errorf("Q6 p=%v: rescued plan diverged from naive oracle", fixed["p"])
		}
		return nil
	}
	type row struct {
		label string
		prep  *core.PreparedQuery
		check func(i int, fixed query.Bindings, ans *core.Answer) error
		reads [2]float64 // reads/op before / after the commit stream
	}
	rows := []*row{
		{label: "Q7 base plan", prep: prep7Base},
		{label: fmt.Sprintf("Q7 view plan %v", prep7View.Plan().Views), prep: prep7View, check: checkQ7},
		{label: fmt.Sprintf("Q6 rescued %v", prep6.Plan().Views), prep: prep6, check: checkQ6},
	}
	// phase executes every row's plan over the hot bindings, holding each
	// execution to its static bound.
	phase := func(slot int) error {
		for _, r := range rows {
			var reads int64
			for i, p := range hot {
				fixed := bindP(p)
				ans, err := r.prep.Exec(ctx, fixed, core.WithoutTrace())
				if err != nil {
					return err
				}
				if bound := r.prep.Plan().Bound.Reads; ans.Cost.TupleReads > bound {
					return fmt.Errorf("%s p=%d: %d reads exceed static bound %d", r.prep.Stmt().Name, p, ans.Cost.TupleReads, bound)
				}
				reads += ans.Cost.TupleReads
				if r.check != nil {
					if err := r.check(i, fixed, ans); err != nil {
						return err
					}
				}
			}
			r.reads[slot] = float64(reads) / float64(ops)
		}
		return nil
	}
	if err := phase(0); err != nil {
		return nil, err
	}

	// The commit stream: views maintained transactionally inside each
	// Engine.Commit, charged like watcher maintenance.
	var maintained int
	var viewReads int64
	var commitTime time.Duration
	for _, u := range stream {
		start := time.Now()
		res, err := eng.Commit(ctx, u)
		commitTime += time.Since(start)
		if err != nil {
			return nil, err
		}
		maintained += res.ViewsMaintained
		viewReads += res.ViewReads
	}
	if err := phase(1); err != nil {
		return nil, err
	}

	// Rescued rate over the serving pack: how many of the pack's queries
	// only answer through a view rewriting.
	pack := []string{workload.Q1Src, workload.Q2Src, backendtest.Q6Src, backendtest.Q7Src}
	rescued := 0
	for _, src := range pack {
		q, err := parseServing(src)
		if err != nil {
			return nil, err
		}
		prep, err := eng.Prepare(q, query.NewVarSet("p"))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		if prep.Plan().Rescued {
			rescued++
		}
	}

	t := bench.NewTable("views",
		fmt.Sprintf("materialized-view serving on |D| = %d (%s backend): %d ops per plan, %d commits",
			s.st.Size(), s.backend, ops, len(stream)),
		"plan", "bound", "reads/op (fresh)", "reads/op (after)")
	for _, r := range rows {
		t.Row(r.label, r.prep.Plan().Bound.Reads, r.reads[0], r.reads[1])
	}
	t.Notes = fmt.Sprintf("commit stream: %d view maintenances, %d maintenance reads (%.1f/commit), %s/commit. Rescued-query rate over the %d-query pack: %d/%d; every rescued execution stayed within its bound.",
		maintained, viewReads, float64(viewReads)/float64(len(stream)),
		(commitTime / time.Duration(len(stream))).Round(time.Microsecond),
		len(pack), rescued, len(pack))
	return []*bench.Table{t}, nil
}

func mustParseCQ(src string) *query.CQ {
	cq, err := parser.ParseCQ(src)
	if err != nil {
		panic(err)
	}
	return cq
}
