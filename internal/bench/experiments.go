package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/qdsi"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/views"
	"repro/internal/workload"
)

func mustParseQuery(src string) *query.Query {
	q, err := parser.ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return q
}

func mustParseCQ(src string) *query.CQ {
	q, err := parser.ParseCQ(src)
	if err != nil {
		panic(err)
	}
	return q
}

// openSocial generates a conforming social database of the given size and
// opens it as an instrumented store.
func openSocial(persons int, seed int64) (*store.DB, workload.Config, error) {
	cfg := workload.DefaultConfig()
	cfg.Persons = persons
	cfg.MaxFriends = 50
	cfg.AvgFriends = 8
	cfg.Restaurants = 60
	cfg.Seed = seed
	db, err := workload.Generate(cfg)
	if err != nil {
		return nil, cfg, err
	}
	st, err := store.Open(db, workload.Access(cfg))
	if err != nil {
		return nil, cfg, err
	}
	return st, cfg, nil
}

// Table1 regenerates Table 1 of the paper as empirical validation: for
// each cell, the decision procedure's measured work as the relevant
// parameter grows, with agreement against a brute-force oracle where one
// is feasible.
func Table1(quick bool) ([]*Table, error) {
	var out []*Table

	// --- Boolean CQ, data complexity: O(1) when ‖Q‖ ≤ M (Cor 3.2). ---
	tb := NewTable("T1-CQ-Bool", "Boolean CQ: decision work vs |D| (paper: O(1) when ‖Q‖ ≤ M)",
		"|D|", "InSQ", "witness", "time")
	q := mustParseCQ("Q() :- R(x, y), R(y, z)")
	sizes := []int{100, 1000, 10000}
	if quick {
		sizes = []int{100, 1000}
	}
	for _, n := range sizes {
		d := chainDB(n)
		start := time.Now()
		dec, err := qdsi.DecideBooleanCQ(q, d, q.Size())
		if err != nil {
			return nil, err
		}
		tb.Row(n, dec.InSQ, dec.WitnessSize, time.Since(start))
	}
	tb.Notes = "witness size stays ≤ ‖Q‖ = 2 and time is flat: the O(1) cell."
	out = append(out, tb)

	// --- Data-selecting CQ, data complexity: NP (set cover, Thm 3.3). ---
	ts := NewTable("T1-CQ-DS", "Data-selecting CQ: exact QDSI (set cover over homomorphism images)",
		"|D|", "answers", "min witness", "search nodes", "time")
	q2 := mustParseCQ("Q(x, y) :- R(x, z), R(z, y)")
	covSizes := []int{6, 10, 14}
	if quick {
		covSizes = []int{6, 10}
	}
	for _, n := range covSizes {
		d := starDB(n)
		start := time.Now()
		dec, err := qdsi.DecideCQ(q2, d, d.Size(), qdsi.Options{})
		if err != nil {
			return nil, err
		}
		ts.Row(d.Size(), n*n, dec.WitnessSize, dec.Checks, time.Since(start))
	}
	ts.Notes = "exact minimum witnesses via branch-and-bound; search nodes grow with |D| (NP cell)."
	out = append(out, ts)

	// --- FO, data complexity: NP in general, PTIME with fixed M (Prop 3.4). ---
	tf := NewTable("T1-FO", "FO: subset-search QDSI; fixed M keeps the loop polynomial",
		"|D|", "M", "InSQ", "checks", "time")
	fo := mustParseQuery("Q() := not (exists x (R(x, x)))")
	foSizes := []int{6, 9, 12}
	if quick {
		foSizes = []int{6, 9}
	}
	for _, n := range foSizes {
		d := loopDB(n)
		for _, m := range []int{1, 2} {
			start := time.Now()
			dec, err := qdsi.DecideFO(fo, d, m, qdsi.Options{})
			if err != nil {
				return nil, err
			}
			tf.Row(d.Size(), m, dec.InSQ, dec.Checks, time.Since(start))
		}
	}
	tf.Notes = "with fixed M the number of subsets is polynomial in |D| (lower half of Table 1)."
	out = append(out, tf)

	// --- Cross-validation: CQ decider vs generic FO search. ---
	tx := NewTable("T1-XVAL", "Agreement of the CQ set-cover decider with brute-force subset search",
		"instances", "M values", "disagreements")
	disagreements := 0
	instances := 0
	cqQ := mustParseCQ("Q(x) :- R(x, y)")
	foQ := mustParseQuery("Q(x) := exists y (R(x, y))")
	trials := 8
	if quick {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		d := randomSmallDB(int64(trial))
		instances++
		for m := 0; m <= d.Size(); m++ {
			a, err := qdsi.DecideCQ(cqQ, d, m, qdsi.Options{})
			if err != nil {
				return nil, err
			}
			b, err := qdsi.DecideFO(foQ, d, m, qdsi.Options{})
			if err != nil {
				return nil, err
			}
			if a.InSQ != b.InSQ {
				disagreements++
			}
		}
	}
	tx.Row(instances, "0..|D|", disagreements)
	tx.Notes = "every (instance, M) pair decided identically by both procedures."
	out = append(out, tx)
	return out, nil
}

func chainDB(n int) *relation.Database {
	s := relation.MustSchema(relation.MustRelSchema("R", "a", "b"))
	d := relation.NewDatabase(s)
	for i := 0; i < n; i++ {
		d.MustInsert("R", relation.Ints(int64(i), int64(i+1)))
	}
	return d
}

func starDB(n int) *relation.Database {
	s := relation.MustSchema(relation.MustRelSchema("R", "a", "b"))
	d := relation.NewDatabase(s)
	for i := 0; i < n; i++ {
		d.MustInsert("R", relation.Ints(int64(1+i), 0))
		d.MustInsert("R", relation.Ints(0, int64(100+i)))
	}
	return d
}

func loopDB(n int) *relation.Database {
	s := relation.MustSchema(relation.MustRelSchema("R", "a", "b"))
	d := relation.NewDatabase(s)
	// The witness (the only loop tuple) goes last so the subset search
	// visits the whole size-1 layer: the checks column grows linearly
	// with |D|, the polynomial loop of Proposition 3.4.
	for i := 1; i < n; i++ {
		d.MustInsert("R", relation.Ints(int64(i), int64(i+1)))
	}
	d.MustInsert("R", relation.Ints(0, 0))
	return d
}

func randomSmallDB(seed int64) *relation.Database {
	s := relation.MustSchema(relation.MustRelSchema("R", "a", "b"))
	d := relation.NewDatabase(s)
	x := seed
	for i := 0; i < 5; i++ {
		x = (x*1103515245 + 12345) % 9
		y := (x*31 + 7) % 3
		d.Insert("R", relation.Ints(x%3, y)) //nolint:errcheck
	}
	return d
}

// F1aBoundedVsNaive is Example 1.1(a) / Theorem 4.2: Q1 with p fixed,
// bounded evaluation vs naive evaluation as |D| grows.
func F1aBoundedVsNaive(quick bool) ([]*Table, error) {
	t := NewTable("F1a", "Q1(p₀, name): bounded vs naive evaluation as |D| grows",
		"persons", "|D|", "naive reads", "naive time", "bounded reads", "|D_Q|", "bounded time", "static bound")
	sizes := []int{1000, 4000, 16000}
	if quick {
		sizes = []int{500, 2000}
	}
	q := mustParseQuery(workload.Q1Src)
	for _, n := range sizes {
		st, _, err := openSocial(n, 42)
		if err != nil {
			return nil, err
		}
		fixed := query.Bindings{"p": relation.Int(7)}

		st.ResetCounters()
		start := time.Now()
		naive, err := eval.Answers(eval.NewStoreSource(st, nil), q, fixed)
		if err != nil {
			return nil, err
		}
		naiveTime := time.Since(start)
		naiveReads := st.Counters().TupleReads

		eng := core.NewEngine(st)
		st.ResetCounters()
		start = time.Now()
		ans, err := eng.Answer(q, fixed)
		if err != nil {
			return nil, err
		}
		boundedTime := time.Since(start)
		if !ans.Tuples.Equal(naive) {
			return nil, fmt.Errorf("F1a: bounded and naive answers differ at n=%d", n)
		}
		t.Row(n, st.Size(), naiveReads, naiveTime, ans.Cost.TupleReads, ans.DQ.Distinct(), boundedTime, ans.Plan.Bound.Reads)
	}
	t.Notes = "bounded reads and |D_Q| are flat in |D|; naive reads grow linearly. Answers identical."
	return []*Table{t}, nil
}

// F1bIncremental is Example 1.1(b) / Prop 5.5: incremental maintenance of
// Q2 under visit insertions, cost per update vs |D| and vs |ΔD|.
func F1bIncremental(quick bool) ([]*Table, error) {
	t := NewTable("F1b", "Q2(p₀): incremental maintenance cost under visit insertions",
		"persons", "|D|", "|ΔD|", "base reads+probes", "recompute reads", "maintained == recomputed")
	sizes := []int{1000, 4000}
	if quick {
		sizes = []int{400, 1600}
	}
	q2 := mustParseCQ(workload.Q2Src)
	for _, n := range sizes {
		for _, batch := range []int{1, 8} {
			st, cfg, err := openSocial(n, 43)
			if err != nil {
				return nil, err
			}
			eng := core.NewEngine(st)
			fixed := query.Bindings{"p": relation.Int(7)}
			maint, err := core.NewMaintainer(eng, q2, fixed)
			if err != nil {
				return nil, err
			}
			ups := workload.VisitInsertions(st.Data(), cfg, batch, 99)
			st.ResetCounters()
			for _, u := range ups {
				if _, _, _, err := maint.Apply(context.Background(), u); err != nil {
					return nil, err
				}
			}
			c := st.Counters()
			incReads := c.TupleReads + c.Memberships

			// Recompute baseline on the updated data.
			st.ResetCounters()
			want, err := eval.AnswersCQ(eval.NewStoreSource(st, nil), q2, fixed)
			if err != nil {
				return nil, err
			}
			recompute := st.Counters().TupleReads
			// The maintainer keeps answers without the fixed p; Expand puts
			// it back for the comparison with full head tuples.
			got := relation.NewTupleSet(maint.Len())
			for _, a := range maint.Answers().Tuples() {
				got.Add(maint.Expand(a))
			}
			t.Row(n, st.Size(), batch, incReads, recompute, got.Equal(want))
		}
	}
	t.Notes = "maintenance cost scales with |ΔD| (≤ 3 fetches per inserted tuple, often 1: a failed friend(p₀,id) probe short-circuits), not with |D|; recomputation scans everything."
	return []*Table{t}, nil
}

// F1cViews is Example 1.1(c) / Cor 6.2: Q2 via the rewriting over
// materialized views V1, V2 — base-relation reads stay flat in |D|.
func F1cViews(quick bool) ([]*Table, error) {
	t := NewTable("F1c", "Q2(p₀) via rewriting over V1, V2: base reads vs |D|",
		"persons", "|D|", "naive reads", "view-plan base reads", "view reads", "answers match")
	sizes := []int{1000, 4000}
	if quick {
		sizes = []int{400, 1600}
	}
	q2 := mustParseCQ(workload.Q2Src)
	v1 := mustView("V1(rid, rn, rating) :- restr(rid, rn, 'NYC', rating)")
	v2 := mustView("V2(id, rid) :- visit(id, rid, yy, mm, dd), person(id, pn, 'NYC')")
	vs := []*views.View{v1, v2}
	rws, err := views.FindRewritings(q2, vs, 0)
	if err != nil {
		return nil, err
	}
	var rw *views.Rewriting
	for _, r := range rws {
		if r.BaseSize() == 1 && len(r.ViewAtoms) == 2 {
			rw = r
		}
	}
	if rw == nil {
		return nil, fmt.Errorf("F1c: paper rewriting not found among %d rewritings", len(rws))
	}
	for _, n := range sizes {
		st, cfg, err := openSocial(n, 44)
		if err != nil {
			return nil, err
		}
		fixed := query.Bindings{"p": relation.Int(7)}

		st.ResetCounters()
		q2q, err := q2.Query()
		if err != nil {
			return nil, err
		}
		naive, err := eval.Answers(eval.NewStoreSource(st, nil), q2q, fixed)
		if err != nil {
			return nil, err
		}
		naiveReads := st.Counters().TupleReads

		combined, err := views.Materialize(st.Data(), vs)
		if err != nil {
			return nil, err
		}
		acc, err := views.ViewAccess(workload.Access(cfg), combined.Schema(), []access.Entry{
			access.Plain("V2", []string{"id"}, cfg.VisitsPerPerson+64, 1),
			access.Plain("V1", []string{"rid"}, 1, 1),
		})
		if err != nil {
			return nil, err
		}
		vst, err := store.Open(combined, acc)
		if err != nil {
			return nil, err
		}
		eng := core.NewEngine(vst)
		rq, err := rw.Body.Query()
		if err != nil {
			return nil, err
		}
		ans, err := eng.Answer(rq, fixed)
		if err != nil {
			return nil, err
		}
		per := ans.DQ.PerRelation()
		baseReads := per["friend"] + per["person"] + per["visit"] + per["restr"]
		viewReads := per["V1"] + per["V2"]
		t.Row(n, st.Size(), naiveReads, baseReads, viewReads, ans.Tuples.Equal(naive))
	}
	t.Notes = "only friend tuples are fetched from the base data (≤ maxFriends); the rest comes from the materialized views."
	return []*Table{t}, nil
}

func mustView(src string) *views.View {
	v, err := views.NewView(mustParseCQ(src))
	if err != nil {
		panic(err)
	}
	return v
}
