package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/views"
	"repro/internal/workload"
)

// X44QCntl exercises Theorem 4.4: QCntl / QCntl_min on growing chain
// conjunctions — analysis time and family size grow with the query.
func X44QCntl(quick bool) ([]*Table, error) {
	t := NewTable("X4.4", "QCntl on chain queries R1(x1,x2) ∧ ... ∧ Rk(xk,xk+1)",
		"k (atoms)", "minimal sets", "smallest |x̄|", "QCntl(1)", "time")
	ks := []int{2, 4, 6, 8}
	if quick {
		ks = []int{2, 4, 6}
	}
	for _, k := range ks {
		catalog := ""
		qbody := ""
		head := ""
		for i := 0; i < k; i++ {
			catalog += fmt.Sprintf("relation R%d(a, b)\naccess R%d(a -> *) limit 3 time 1\n", i, i)
			if i > 0 {
				qbody += " and "
				head += ", "
			}
			qbody += fmt.Sprintf("R%d(x%d, x%d)", i, i, i+1)
			head += fmt.Sprintf("x%d", i)
		}
		head += fmt.Sprintf(", x%d", k)
		cat, err := parser.ParseCatalog(catalog)
		if err != nil {
			return nil, err
		}
		q, err := parser.ParseQuery(fmt.Sprintf("Q(%s) := %s", head, qbody))
		if err != nil {
			return nil, err
		}
		an := core.NewAnalyzer(cat.Access)
		start := time.Now()
		res, err := an.AnalyzeQuery(q)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		_, ok, err := core.QCntl(an, q, 1)
		if err != nil {
			return nil, err
		}
		fam := res.Family()
		t.Row(k, len(fam), fam.MinSize(), ok, elapsed)
	}
	t.Notes = "a chain is controlled by {x1} alone (cascading keys): QCntl(1) = yes at every k; the family of minimal sets grows with k."
	return []*Table{t}, nil
}

// X45Embedded is Proposition 4.5 / Example 4.6: Q3 under the embedded
// access schema (366-day bound + FD), bounded vs naive as |D| grows.
func X45Embedded(quick bool) ([]*Table, error) {
	t := NewTable("X4.5", "Q3(rn, p₀, 2013) with embedded entries: bounded vs naive",
		"persons", "|D|", "naive reads", "bounded reads+probes", "answers match")
	sizes := []int{500, 2000}
	if quick {
		sizes = []int{300, 1200}
	}
	q := mustParseQuery(workload.Q3Src)
	for _, n := range sizes {
		st, _, err := openSocial(n, 45)
		if err != nil {
			return nil, err
		}
		fixed := query.Bindings{"p": relation.Int(7), "yy": relation.Int(2013)}
		st.ResetCounters()
		naive, err := eval.Answers(eval.NewStoreSource(st, nil), q, fixed)
		if err != nil {
			return nil, err
		}
		naiveReads := st.Counters().TupleReads

		eng := core.NewEngine(st)
		st.ResetCounters()
		ans, err := eng.Answer(q, fixed)
		if err != nil {
			return nil, err
		}
		c := st.Counters()
		t.Row(n, st.Size(), naiveReads, c.TupleReads+c.Memberships, ans.Tuples.Equal(naive))
	}
	t.Notes = "without the embedded entries Q3 is not (p,yy)-controlled (Example 4.1); with them the chase gives a bounded plan."
	return []*Table{t}, nil
}

// X54RAA is Theorem 5.4: σ_a=ā(R ⋈ S), which the RAA rules derive to be
// incrementally scale-independent, is lowered onto the query IR, watched
// at a = 0 and maintained by Engine.Commit's delta plans. Reads per update
// are the charged ExecStats reads of each delta, under its bound.
func X54RAA(quick bool) ([]*Table, error) {
	t := NewTable("X5.4", "σ_a=0(R ⋈ S) maintained by Engine.Commit: charged reads per update vs |D|",
		"|D|", "(E,X)∈RAA", "(E∆,X),(E∇,X)∈RAA", "reads/update", "max reads/bound", "exact")
	s := relation.MustSchema(
		relation.MustRelSchema("R", "a", "b"),
		relation.MustRelSchema("S", "b", "c"),
	)
	acc := access.New(s)
	acc.MustAdd(access.Plain("R", []string{"a"}, 4, 1))
	acc.MustAdd(access.Plain("S", []string{"b"}, 4, 1))
	rRel, _ := s.Rel("R")
	sRel, _ := s.Rel("S")
	join := ra.NewJoin(ra.NewRel(rRel), ra.NewRel(sRel))
	x := query.NewVarSet("a")
	si, err := ra.ScaleIndependent(join, acc, x)
	if err != nil {
		return nil, err
	}
	isi, err := ra.IncrementallyScaleIndependent(join, acc, x)
	if err != nil {
		return nil, err
	}
	if !si || !isi {
		return nil, fmt.Errorf("RAA does not derive (E,X) and (E∆,X),(E∇,X) for %s", join)
	}
	q, err := ra.LowerQuery("X54", join)
	if err != nil {
		return nil, err
	}
	fixed := query.Bindings{"a": relation.Int(0)}
	selected := ra.MustProject(ra.MustSelect(join, ra.EqConst("a", relation.Int(0))), "b", "c")
	// Each round inserts and deletes one R(0, j) and one S(j, ·): the
	// a = 0 and b = j groups never exceed N = 4, whatever |D| is.
	var updates []*relation.Update
	for j := int64(1); j <= 3; j++ {
		r, sj := relation.Ints(0, j), relation.Ints(j, 3*j+1)
		updates = append(updates,
			relation.NewUpdate().Insert("R", r),
			relation.NewUpdate().Insert("S", sj),
			relation.NewUpdate().Delete("S", sj),
			relation.NewUpdate().Delete("R", r))
	}
	sizes := []int{500, 2000, 8000}
	if quick {
		sizes = []int{300, 1200}
	}
	var verdict error
	var first float64
	for i, n := range sizes {
		db := relation.NewDatabase(s)
		for k := 0; k < n; k++ {
			db.MustInsert("R", relation.Ints(int64(k), int64(k)))
			db.MustInsert("S", relation.Ints(int64(k), int64(3*k)))
		}
		st := store.MustOpen(db, acc)
		eng := core.NewEngine(st)
		w, err := watch(eng, q, fixed)
		if err != nil {
			return nil, err
		}
		exact := true
		for _, u := range updates {
			res, err := eng.Commit(context.Background(), u)
			if err != nil {
				return nil, err
			}
			want, err := ra.Eval(selected, st.Data())
			if err != nil {
				return nil, err
			}
			exact = w.record(res.Seq, want) && exact
		}
		r, err := w.replay()
		if err != nil {
			return nil, err
		}
		perUpdate := float64(r.reads) / float64(len(updates))
		t.Row(st.Size(), si, isi, perUpdate, fmt.Sprintf("%d/%d", r.maxReads, r.maxBound), exact && r.mismatches == 0)
		if i == 0 {
			first = perUpdate
		}
		switch {
		case verdict != nil:
		case !w.live.Maintained():
			verdict = fmt.Errorf("%s is not maintained by delta plans", q.Name)
		case !exact || r.mismatches > 0:
			verdict = fmt.Errorf("|D|=%d: maintained answers differ from ra.Eval", st.Size())
		case r.overBound > 0:
			verdict = fmt.Errorf("|D|=%d: %d deltas read more than their bound", st.Size(), r.overBound)
		case perUpdate != first:
			verdict = fmt.Errorf("|D|=%d: %.2f reads/update, %.2f at |D|=%d", st.Size(), perUpdate, first, 2*sizes[0])
		}
	}
	t.Notes = "the RAA rules predict incremental scale independence; the charged reads per update are the same at every |D| and stay under each delta's N-derived bound."
	return []*Table{t}, verdict
}

// X61VQSI is Theorem 6.1: the VQSI decision procedure on the paper's
// example and on complete-rewriting instances.
func X61VQSI(quick bool) ([]*Table, error) {
	t := NewTable("X6.1", "VQSI decisions",
		"query", "views", "M", "InVSQ", "reason/witness", "time")
	q2 := mustParseCQ(workload.Q2Src)
	v1 := mustView("V1(rid, rn, rating) :- restr(rid, rn, 'NYC', rating)")
	v2 := mustView("V2(id, rid) :- visit(id, rid, yy, mm, dd), person(id, pn, 'NYC')")
	cases := []struct {
		name string
		q    *query.CQ
		vs   []*views.View
		m    int
	}{
		{"Q2", q2, []*views.View{v1, v2}, 1},
		{"Q2", q2, []*views.View{v1, v2}, 4},
		{"identity", mustParseCQ("Q(x, y) :- R0(x, y)"),
			[]*views.View{mustView("VR(x, y) :- R0(x, y)")}, 0},
		{"boolean", mustParseCQ("Q() :- friend(p, id), visit(id, rid, yy, mm, dd)"),
			[]*views.View{v2}, 2},
	}
	for _, c := range cases {
		start := time.Now()
		dec, err := views.DecideVQSI(c.q, c.vs, c.m, 0)
		if err != nil {
			return nil, err
		}
		detail := dec.Reason
		if dec.InVSQ {
			detail = dec.Rewriting.String()
			if len(detail) > 48 {
				detail = detail[:48] + "…"
			}
		}
		t.Row(c.name, len(c.vs), c.m, dec.InVSQ, detail, time.Since(start))
	}
	t.Notes = "Q2 is not in VSQ for small M (rn stays unconstrained — Thm 6.1's characterization); for larger M the trivial rewriting qualifies for Boolean shape; a complete rewriting gives M = 0."
	return []*Table{t}, nil
}

// XGLTDeltas validates the maintenance substrate [14] on a non-SPJ
// expression: σ_a=ā(π_a,b(R ⋈ S) − T), lowered and watched at four values
// of a, is maintained by bounded re-execution over a random mix of
// commits. Every snapshot must equal ra.Eval, and every delta must satisfy
// ∇ ⊆ old, ∆ ∩ old = ∅ and old ⊕ Δ = new.
func XGLTDeltas(quick bool) ([]*Table, error) {
	t := NewTable("XGLT", "Griffin–Libkin–Trickey deltas of σ_a(π(R ⋈ S) − T) under Engine.Commit: exactness and speed",
		"|D|", "watches", "commits", "delta tuples", "mismatches", "commit time", "recompute time")
	s := relation.MustSchema(
		relation.MustRelSchema("R", "a", "b"),
		relation.MustRelSchema("S", "b", "c"),
		relation.MustRelSchema("T", "a", "b"),
	)
	acc := access.New(s)
	acc.MustAdd(access.Plain("R", []string{"a"}, 1000, 1))
	acc.MustAdd(access.Plain("S", []string{"b"}, 1000, 1))
	rRel, _ := s.Rel("R")
	sRel, _ := s.Rel("S")
	tRel, _ := s.Rel("T")
	expr := ra.MustDiff(
		ra.MustProject(ra.NewJoin(ra.NewRel(rRel), ra.NewRel(sRel)), "a", "b"),
		ra.NewRel(tRel),
	)
	q, err := ra.LowerQuery("XGLT", expr)
	if err != nil {
		return nil, err
	}
	sizes := []int{200, 800}
	if quick {
		sizes = []int{100, 400}
	}
	const watches, commits = 4, 30
	var verdict error
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(7))
		db := relation.NewDatabase(s)
		for i := 0; i < n; i++ {
			db.Insert("R", relation.Ints(int64(rng.Intn(n)), int64(rng.Intn(50)))) //nolint:errcheck
			db.Insert("S", relation.Ints(int64(rng.Intn(50)), int64(rng.Intn(n)))) //nolint:errcheck
			db.Insert("T", relation.Ints(int64(rng.Intn(n)), int64(rng.Intn(50)))) //nolint:errcheck
		}
		st := store.MustOpen(db, acc)
		eng := core.NewEngine(st)
		ws := make([]*watched, watches)
		selected := make([]ra.Expr, watches)
		for a := range ws {
			fixed := query.Bindings{"a": relation.Int(int64(a))}
			if ws[a], err = watch(eng, q, fixed, core.WithReexec()); err != nil {
				return nil, err
			}
			selected[a] = ra.MustProject(ra.MustSelect(expr, ra.EqConst("a", relation.Int(int64(a)))), "b")
		}
		mismatches, tuples := 0, 0
		var commitTime, recomputeTime time.Duration
		for k := 0; k < commits; k++ {
			// Toggle one tuple of R, S or T inside the watched a-values and
			// a few b-values, so that commits keep colliding with answers.
			rel := []string{"R", "S", "T"}[k%3]
			tu := relation.Ints(int64(rng.Intn(watches)), int64(rng.Intn(5)))
			if rel == "S" {
				tu = relation.Ints(int64(rng.Intn(5)), int64(rng.Intn(n)))
			}
			u := relation.NewUpdate()
			if st.Data().Rel(rel).Contains(tu) {
				u.Delete(rel, tu)
			} else {
				u.Insert(rel, tu)
			}
			start := time.Now()
			res, err := eng.Commit(context.Background(), u)
			if err != nil {
				return nil, err
			}
			commitTime += time.Since(start)
			start = time.Now()
			for a, w := range ws {
				want, err := ra.Eval(selected[a], st.Data())
				if err != nil {
					return nil, err
				}
				if !w.record(res.Seq, want) {
					mismatches++
				}
			}
			recomputeTime += time.Since(start)
		}
		for _, w := range ws {
			r, err := w.replay()
			if err != nil {
				return nil, err
			}
			mismatches += r.mismatches + r.overBound
			tuples += r.tuples
		}
		t.Row(st.Size(), watches, commits, tuples, mismatches, commitTime, recomputeTime)
		if verdict == nil && mismatches > 0 {
			verdict = fmt.Errorf("|D|=%d: %d mismatches", st.Size(), mismatches)
		}
	}
	t.Notes = "zero mismatches: snapshots equal ra.Eval and old ⊕ Δ = new for a π/⋈/− expression maintained by bounded re-execution; commit time covers all four watches."
	return []*Table{t}, verdict
}

// watched is a Live handle under check: its initial snapshot and its
// snapshot after every commit, by commit sequence number.
type watched struct {
	live    *core.Live
	initial *relation.TupleSet
	snaps   map[int64]*relation.TupleSet
}

// watch subscribes to q at fixed on eng.
func watch(eng *core.Engine, q *query.Query, fixed query.Bindings, opts ...core.WatchOption) (*watched, error) {
	l, err := eng.WatchContext(context.Background(), q, fixed, opts...)
	if err != nil {
		return nil, err
	}
	return &watched{live: l, initial: l.Snapshot(), snaps: make(map[int64]*relation.TupleSet)}, nil
}

// record stores the snapshot after commit seq and reports whether it
// equals want.
func (w *watched) record(seq int64, want *relation.TupleSet) bool {
	w.snaps[seq] = w.live.Snapshot()
	return w.snaps[seq].Equal(want)
}

// deltaCheck is the outcome of replaying one handle's deltas.
type deltaCheck struct {
	mismatches int   // deltas breaking ∇ ⊆ old, ∆ ∩ old = ∅ or old ⊕ Δ = new
	overBound  int   // deltas whose charged reads exceed their bound
	tuples     int   // |∆| + |∇|, summed
	reads      int64 // charged reads, summed
	maxReads   int64 // largest charged reads of one delta
	maxBound   int64 // largest bound of one delta
}

// replay closes the handle and folds its deltas, in commit order, into the
// initial snapshot, checking each against the snapshot recorded at its
// commit.
func (w *watched) replay() (deltaCheck, error) {
	var r deltaCheck
	w.live.Close()
	state := w.initial.Clone()
	for d, err := range w.live.Deltas() {
		if err != nil {
			return r, err
		}
		ok := true
		for _, tu := range d.Del {
			ok = ok && state.Contains(tu)
			state.Remove(tu)
		}
		for _, tu := range d.Ins {
			ok = ok && !state.Contains(tu)
			state.Add(tu)
		}
		if !ok || !state.Equal(w.snaps[d.Seq]) {
			r.mismatches++
		}
		if d.Cost.TupleReads > d.Bound {
			r.overBound++
		}
		r.tuples += len(d.Ins) + len(d.Del)
		r.reads += d.Cost.TupleReads
		r.maxReads = max(r.maxReads, d.Cost.TupleReads)
		r.maxBound = max(r.maxBound, d.Bound)
	}
	return r, nil
}
