package ra

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
)

func testSchema() *relation.Schema {
	return relation.MustSchema(
		relation.MustRelSchema("R", "a", "b"),
		relation.MustRelSchema("S", "b", "c"),
		relation.MustRelSchema("T", "a", "b"),
	)
}

func fill(db *relation.Database, rel string, rows [][]int64) {
	for _, r := range rows {
		db.MustInsert(rel, relation.Ints(r...))
	}
}

func relExpr(s *relation.Schema, name string) *Rel {
	rs, ok := s.Rel(name)
	if !ok {
		panic("unknown relation " + name)
	}
	return NewRel(rs)
}

func TestEvalOperators(t *testing.T) {
	s := testSchema()
	db := relation.NewDatabase(s)
	fill(db, "R", [][]int64{{1, 10}, {2, 20}, {1, 30}})
	fill(db, "S", [][]int64{{10, 100}, {20, 200}})
	fill(db, "T", [][]int64{{1, 10}, {9, 90}})

	r, sRel, tRel := relExpr(s, "R"), relExpr(s, "S"), relExpr(s, "T")

	sel := MustSelect(r, EqConst("a", relation.Int(1)))
	got, err := Eval(sel, db)
	if err != nil || got.Len() != 2 {
		t.Fatalf("select: %v %v", got, err)
	}

	proj := MustProject(r, "a")
	got, err = Eval(proj, db)
	if err != nil || got.Len() != 2 { // {1, 2}
		t.Fatalf("project: %d %v", got.Len(), err)
	}

	un := MustUnion(r, tRel)
	got, err = Eval(un, db)
	if err != nil || got.Len() != 4 { // R ∪ T dedups (1,10)
		t.Fatalf("union: %d %v", got.Len(), err)
	}

	diff := MustDiff(r, tRel)
	got, err = Eval(diff, db)
	if err != nil || got.Len() != 2 {
		t.Fatalf("diff: %d %v", got.Len(), err)
	}

	join := NewJoin(r, sRel) // on b
	got, err = Eval(join, db)
	if err != nil || got.Len() != 2 {
		t.Fatalf("join: %d %v", got.Len(), err)
	}
	if !sameAttrs(join.Attrs(), []string{"a", "b", "c"}) {
		t.Errorf("join attrs = %v", join.Attrs())
	}
	if !got.Contains(relation.Ints(1, 10, 100)) {
		t.Errorf("join content: %v", got.Tuples())
	}

	ren := MustRename(tRel, map[string]string{"a": "x"})
	if !sameAttrs(ren.Attrs(), []string{"x", "b"}) {
		t.Errorf("rename attrs = %v", ren.Attrs())
	}

	sel2 := MustSelect(r, NeqAttr("a", "b"), NeqConst("b", relation.Int(30)))
	got, err = Eval(sel2, db)
	if err != nil || got.Len() != 2 {
		t.Fatalf("neq select: %d %v", got.Len(), err)
	}
}

func TestExprValidation(t *testing.T) {
	s := testSchema()
	r, sRel := relExpr(s, "R"), relExpr(s, "S")
	if _, err := NewSelect(r, EqAttr("a", "zz")); err == nil {
		t.Error("bad select attr accepted")
	}
	if _, err := NewProject(r, "zz"); err == nil {
		t.Error("bad project attr accepted")
	}
	if _, err := NewProject(r, "a", "a"); err == nil {
		t.Error("duplicate project attr accepted")
	}
	if _, err := NewUnion(r, sRel); err == nil {
		t.Error("union attr mismatch accepted")
	}
	if _, err := NewDiff(r, sRel); err == nil {
		t.Error("diff attr mismatch accepted")
	}
	if _, err := NewRename(r, map[string]string{"zz": "q"}); err == nil {
		t.Error("rename of unknown attr accepted")
	}
	if _, err := NewRename(r, map[string]string{"a": "b"}); err == nil {
		t.Error("rename collision accepted")
	}
}

func TestRAAFamiliesBase(t *testing.T) {
	s := testSchema()
	acc := access.New(s)
	acc.MustAdd(access.Plain("R", []string{"a"}, 5, 1))
	acc.MustAdd(access.Plain("S", []string{"b"}, 5, 1))

	r, sRel := relExpr(s, "R"), relExpr(s, "S")
	f, err := RAA(r, acc)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Plain.Controls(query.NewVarSet("a")) {
		t.Errorf("R plain = %v", f.Plain)
	}
	if !f.Inc.Controls(query.NewVarSet()) || !f.Dec.Controls(query.NewVarSet()) {
		t.Error("base deltas should be ∅-controlled")
	}

	// Join: R ⋈ S controlled by {a} (R first feeds b into S).
	join := NewJoin(r, sRel)
	jf, err := RAA(join, acc)
	if err != nil {
		t.Fatal(err)
	}
	if !jf.Plain.Controls(query.NewVarSet("a")) {
		t.Errorf("join plain = %v", jf.Plain)
	}
	// Incremental: deltas are ∅-controlled; other side joined via its key
	// needs Y − attr terms: {a} should control.
	if !jf.Inc.Controls(query.NewVarSet("a")) || !jf.Dec.Controls(query.NewVarSet("a")) {
		t.Errorf("join deltas: inc %v dec %v", jf.Inc, jf.Dec)
	}

	// Select pinning a to a constant removes it: σ_a=1(R) is ∅-controlled.
	sel := MustSelect(r, EqConst("a", relation.Int(1)))
	sf, err := RAA(sel, acc)
	if err != nil {
		t.Fatal(err)
	}
	if !sf.Plain.Controls(query.NewVarSet()) {
		t.Errorf("select plain = %v", sf.Plain)
	}

	// Projection keeps only sets inside the column list.
	proj := MustProject(r, "b")
	pf, err := RAA(proj, acc)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Plain.Controls(query.NewVarSet("b")) {
		// {a} ⊄ {b} and {a,b} ⊄ {b}: only full-attr membership {a,b}
		// could control, and it's not inside Cols, so nothing controls.
		t.Errorf("project plain = %v", pf.Plain)
	}

	thm54, err := ScaleIndependent(join, acc, query.NewVarSet("a"))
	if err != nil || !thm54 {
		t.Errorf("Thm 5.4(1) failed: %v %v", thm54, err)
	}
	inc, err := IncrementallyScaleIndependent(join, acc, query.NewVarSet("a"))
	if err != nil || !inc {
		t.Errorf("Thm 5.4(2) failed: %v %v", inc, err)
	}
}

func TestRAADiffRequiresFullControl(t *testing.T) {
	s := testSchema()
	// No access entries and no implicit membership: nothing controls T,
	// so R − T derives nothing.
	acc := access.New(s)
	acc.ImplicitMembership = false
	acc.MustAdd(access.Plain("R", []string{"a"}, 5, 1))
	d := MustDiff(relExpr(s, "R"), relExpr(s, "T"))
	f, err := RAA(d, acc)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Plain) != 0 {
		t.Errorf("diff plain should be empty: %v", f.Plain)
	}
	// With implicit membership, T is fully controlled: R − T inherits R's.
	acc2 := access.New(s)
	acc2.MustAdd(access.Plain("R", []string{"a"}, 5, 1))
	f2, err := RAA(d, acc2)
	if err != nil {
		t.Fatal(err)
	}
	if !f2.Plain.Controls(query.NewVarSet("a")) {
		t.Errorf("diff plain = %v", f2.Plain)
	}
}

// buildExprCorpus returns expressions exercising every operator.
func buildExprCorpus(s *relation.Schema) []Expr {
	r, sRel, tRel := relExpr(s, "R"), relExpr(s, "S"), relExpr(s, "T")
	join := NewJoin(r, sRel)
	return []Expr{
		MustSelect(r, EqConst("a", relation.Int(1))),
		MustSelect(r, NeqAttr("a", "b")),
		MustProject(r, "a"),
		MustProject(join, "a", "c"),
		MustUnion(r, tRel),
		MustDiff(r, tRel),
		join,
		NewJoin(join, MustRename(tRel, map[string]string{"b": "c2", "a": "a2"})),
		MustUnion(MustProject(join, "a", "b"), tRel),
		MustDiff(MustProject(join, "a", "b"), tRel),
	}
}

// The lowered query answers like the expression on a fixed database, and
// exactly the select-project-join expressions lower to conjunctive bodies.
// The join of two projections that drop the same attribute needs two
// distinct existential variables once the body is flattened.
func TestLowerQueryAgreesWithEval(t *testing.T) {
	s := testSchema()
	corpus := append(buildExprCorpus(s),
		NewJoin(MustProject(relExpr(s, "R"), "a"), MustProject(relExpr(s, "T"), "a")))
	db := relation.NewDatabase(s)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12; i++ {
		for _, rel := range []string{"R", "S", "T"} {
			db.Insert(rel, relation.Ints(int64(rng.Intn(4)), int64(rng.Intn(4)))) //nolint:errcheck
		}
	}
	for _, e := range corpus {
		q, err := LowerQuery("E", e)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		got, err := eval.Answers(eval.DBSource{DB: db}, q, nil)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		want, err := Eval(e, db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s lowered to %s: %v, Eval %v", e, q, got.Tuples(), want.Tuples())
		}
		str := e.String()
		spj := !strings.ContainsAny(str, "∪−") && !strings.Contains(str, "!=")
		if _, isCQ := query.AsCQ(q); isCQ != spj {
			t.Errorf("%s lowered to %s: AsCQ = %v", e, q, isCQ)
		}
	}
}

// Every corpus expression, lowered and watched at a = 1 under two access
// schemas, is accepted by the engine exactly when Theorem 5.4(1) says
// σ_a=1(E) is scale-independent, and an accepted watch stays equal to
// ra.Eval over random commits with deltas that satisfy the GLT invariants
// (∇ ⊆ old, ∆ ∩ old = ∅) and replay to each commit's snapshot.
func TestLoweredCorpusWatchAgreesWithEval(t *testing.T) {
	s := testSchema()
	x := query.NewVarSet("a")
	fixed := query.Bindings{"a": relation.Int(1)}
	for _, keyed := range [][]string{{"R", "S"}, {"R", "S", "T"}} {
		acc := access.New(s)
		for _, rel := range keyed {
			rs, _ := s.Rel(rel)
			acc.MustAdd(access.Plain(rel, rs.Attrs[:1], 8, 1))
		}
		name := fmt.Sprintf("entries on %v", keyed)
		rng := rand.New(rand.NewSource(17))
		for _, e := range buildExprCorpus(s) {
			label := name + " " + e.String()
			q, err := LowerQuery("E", e)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			db := relation.NewDatabase(s)
			for i := 0; i < 8; i++ {
				for _, rel := range []string{"R", "S", "T"} {
					db.Insert(rel, relation.Ints(int64(rng.Intn(4)), int64(rng.Intn(4)))) //nolint:errcheck
				}
			}
			st := store.MustOpen(db, acc)
			eng := core.NewEngine(st)
			ctx := context.Background()
			live, err := eng.WatchContext(ctx, q, fixed, core.WithReexec())
			si, serr := ScaleIndependent(e, acc, x)
			if serr != nil {
				t.Fatal(serr)
			}
			if si != (err == nil) {
				t.Fatalf("%s: RAA says scale-independent=%v, watch error %v", label, si, err)
			}
			if err != nil {
				if !errors.Is(err, core.ErrNotControllable) {
					t.Fatalf("%s: refusal %v does not wrap ErrNotControllable", label, err)
				}
				continue
			}
			var rest []string
			for _, a := range e.Attrs() {
				if a != "a" {
					rest = append(rest, a)
				}
			}
			selected := MustProject(MustSelect(e, EqConst("a", relation.Int(1))), rest...)
			initial := live.Snapshot()
			snaps := make(map[int64]*relation.TupleSet)
			for step := 0; step < 40; step++ {
				u := relation.NewUpdate()
				for _, rel := range []string{"R", "S", "T"} {
					if tu := relation.Ints(int64(rng.Intn(4)), int64(rng.Intn(4))); rng.Intn(2) == 0 && !st.Data().Rel(rel).Contains(tu) {
						u.Insert(rel, tu)
					}
					if ts := st.Data().Rel(rel).Tuples(); rng.Intn(3) == 0 && len(ts) > 0 {
						u.Delete(rel, ts[rng.Intn(len(ts))])
					}
				}
				if u.Size() == 0 {
					continue
				}
				res, err := eng.Commit(ctx, u)
				if err != nil {
					t.Fatalf("%s step %d: %v", label, step, err)
				}
				want, err := Eval(selected, st.Data())
				if err != nil {
					t.Fatal(err)
				}
				snaps[res.Seq] = live.Snapshot()
				if !snaps[res.Seq].Equal(want) {
					t.Fatalf("%s step %d: watched %v, Eval %v", label, step, snaps[res.Seq].Tuples(), want.Tuples())
				}
			}
			live.Close()
			state := initial
			for d, err := range live.Deltas() {
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for _, tu := range d.Del {
					if !state.Contains(tu) {
						t.Fatalf("%s seq %d: ∇ tuple %v not in old answers", label, d.Seq, tu)
					}
					state.Remove(tu)
				}
				for _, tu := range d.Ins {
					if state.Contains(tu) {
						t.Fatalf("%s seq %d: ∆ tuple %v already in old answers", label, d.Seq, tu)
					}
					state.Add(tu)
				}
				if !state.Equal(snaps[d.Seq]) {
					t.Fatalf("%s seq %d: old ⊕ Δ ≠ new", label, d.Seq)
				}
				if d.Cost.TupleReads > d.Bound {
					t.Fatalf("%s seq %d: %d reads over bound %d", label, d.Seq, d.Cost.TupleReads, d.Bound)
				}
			}
		}
	}
}
