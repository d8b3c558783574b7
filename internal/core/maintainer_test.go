package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
)

// Tests of the standalone Maintainer API (NewMaintainer + Apply), the
// path the F1b experiment drives; Watch-driven maintenance is covered in
// live_test.go.

const maintCatalog = `
relation person(id, name, city)
relation friend(id1, id2)
relation restr(rid, name, city, rating)
relation visit(id, rid)

access friend(id1 -> *) limit 5000 time 1
access person(id -> *) limit 1 time 1
access restr(rid -> *) limit 1 time 1
access visit(id -> *) limit 100 time 1
`

func buildMaintDB(t *testing.T, cat *parser.Catalog, nPersons, nRestr int, seed int64) *store.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewDatabase(cat.Relational)
	cities := []string{"NYC", "LA"}
	for i := 0; i < nPersons; i++ {
		db.MustInsert("person", relation.NewTuple(
			relation.Int(int64(i)), relation.Str(fmt.Sprintf("p%d", i)), relation.Str(cities[i%2])))
		for j := 0; j < 3; j++ {
			db.Insert("friend", relation.Ints(int64(i), int64(rng.Intn(nPersons)))) //nolint:errcheck
		}
	}
	for r := 0; r < nRestr; r++ {
		db.MustInsert("restr", relation.NewTuple(
			relation.Int(int64(1000+r)), relation.Str(fmt.Sprintf("r%d", r)),
			relation.Str(cities[r%2]), relation.Str([]string{"A", "B"}[r%2])))
	}
	for i := 0; i < nPersons; i++ {
		for v := 0; v < 2; v++ {
			db.Insert("visit", relation.Ints(int64(i), int64(1000+rng.Intn(nRestr)))) //nolint:errcheck
		}
	}
	return store.MustOpen(db, cat.Access)
}

// maintQ2 is Example 1.1(b): restaurants rated A in NYC visited by p's
// NYC friends.
func maintQ2(t *testing.T) *query.CQ {
	t.Helper()
	cq, err := parser.ParseCQ("Q2(p, rn) :- friend(p, id), visit(id, rid), person(id, pn, 'NYC'), restr(rid, rn, 'NYC', 'A')")
	if err != nil {
		t.Fatal(err)
	}
	return cq
}

// newQ2Maintainer maintains Q2 for person p over st.
func newQ2Maintainer(t *testing.T, st *store.DB, p int64) (*Maintainer, query.Bindings) {
	t.Helper()
	fixed := query.Bindings{"p": relation.Int(p)}
	m, err := NewMaintainer(NewEngine(st), maintQ2(t), fixed)
	if err != nil {
		t.Fatal(err)
	}
	return m, fixed
}

// checkRecomputed fails unless the maintained answers, expanded to full
// head tuples, equal naive recomputation over the current data.
func checkRecomputed(t *testing.T, m *Maintainer, st *store.DB, fixed query.Bindings, step int) {
	t.Helper()
	want, err := eval.AnswersCQ(eval.DBSource{DB: st.Data()}, maintQ2(t), fixed)
	if err != nil {
		t.Fatal(err)
	}
	got := relation.NewTupleSet(m.Len())
	for _, a := range m.Answers().Tuples() {
		got.Add(m.Expand(a))
	}
	if !got.Equal(want) {
		t.Fatalf("step %d: maintained %v vs recomputed %v", step, got.Tuples(), want.Tuples())
	}
}

func TestMaintainerQ2Insertions(t *testing.T) {
	st := buildMaintDB(t, mustCatalog(t, maintCatalog), 30, 8, 1)
	m, fixed := newQ2Maintainer(t, st, 3)
	for step := 0; step < 15; step++ {
		// Insert a visit by a friend-of-3 or a random person.
		tu := relation.Ints(int64(step%30), int64(1000+step%8))
		if st.Data().Rel("visit").Contains(tu) {
			continue
		}
		_, del, _, err := m.Apply(context.Background(), relation.NewUpdate().Insert("visit", tu))
		if err != nil {
			t.Fatal(err)
		}
		if len(del) != 0 {
			t.Fatalf("insert-only update produced deletions: %v", del)
		}
		checkRecomputed(t, m, st, fixed, step)
	}
}

func TestMaintainerDeletions(t *testing.T) {
	st := buildMaintDB(t, mustCatalog(t, maintCatalog), 20, 6, 2)
	m, fixed := newQ2Maintainer(t, st, 1)
	if !m.SupportsDeletions() {
		t.Fatal("Q2 with p and rn fixed should be re-derivable (supports deletions)")
	}
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 25; step++ {
		visits := st.Data().Rel("visit").Tuples()
		if len(visits) == 0 {
			break
		}
		victim := visits[rng.Intn(len(visits))]
		if _, _, _, err := m.Apply(context.Background(), relation.NewUpdate().Delete("visit", victim)); err != nil {
			t.Fatal(err)
		}
		checkRecomputed(t, m, st, fixed, step)
	}
}

// Mixed random updates across all relations must stay exact.
func TestMaintainerMixedQuick(t *testing.T) {
	st := buildMaintDB(t, mustCatalog(t, maintCatalog), 15, 5, 3)
	m, fixed := newQ2Maintainer(t, st, 2)
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 40; step++ {
		u := relation.NewUpdate()
		switch rng.Intn(4) {
		case 0:
			tu := relation.Ints(int64(rng.Intn(15)), int64(1000+rng.Intn(5)))
			if !st.Data().Rel("visit").Contains(tu) {
				u.Insert("visit", tu)
			}
		case 1:
			vs := st.Data().Rel("visit").Tuples()
			if len(vs) > 0 {
				u.Delete("visit", vs[rng.Intn(len(vs))])
			}
		case 2:
			tu := relation.Ints(2, int64(rng.Intn(15)))
			if !st.Data().Rel("friend").Contains(tu) {
				u.Insert("friend", tu)
			}
		case 3:
			fs := st.Data().Rel("friend").Tuples()
			if len(fs) > 0 {
				u.Delete("friend", fs[rng.Intn(len(fs))])
			}
		}
		if u.Size() == 0 {
			continue
		}
		if _, _, _, err := m.Apply(context.Background(), u); err != nil {
			t.Fatal(err)
		}
		checkRecomputed(t, m, st, fixed, step)
	}
}

// The headline measurement of Example 1.1(b): maintenance cost per update
// is bounded (≈ 3 fetches per inserted visit tuple) regardless of |D|.
func TestMaintainerBoundedReads(t *testing.T) {
	cat := mustCatalog(t, maintCatalog)
	var reads []int64
	for _, n := range []int{30, 120, 480} {
		st := buildMaintDB(t, cat, n, 8, 7)
		m, _ := newQ2Maintainer(t, st, 3)
		st.ResetCounters()
		tu := relation.Ints(3, 1001)
		if st.Data().Rel("visit").Contains(tu) {
			tu = relation.Ints(3, 1003)
		}
		if _, _, _, err := m.Apply(context.Background(), relation.NewUpdate().Insert("visit", tu)); err != nil {
			t.Fatal(err)
		}
		c := st.Counters()
		if c.Scans != 0 {
			t.Fatalf("n=%d: maintenance scanned", n)
		}
		reads = append(reads, c.TupleReads+c.Memberships)
	}
	for i := 1; i < len(reads); i++ {
		if reads[i] > reads[0]+8 {
			t.Errorf("reads grew with |D|: %v", reads)
		}
	}
}

func TestMaintainerRejectsUncontrolled(t *testing.T) {
	// Without the visit(id) access entry, the remainder after a friend
	// insertion is not controlled: construction must fail.
	cat := mustCatalog(t, `
relation person(id, name, city)
relation friend(id1, id2)
relation restr(rid, name, city, rating)
relation visit(id, rid)
access friend(id1 -> *) limit 5000 time 1
`)
	st := buildMaintDB(t, cat, 10, 4, 9)
	if _, err := NewMaintainer(NewEngine(st), maintQ2(t), query.Bindings{"p": relation.Int(1)}); err == nil {
		t.Fatal("construction should fail without access entries")
	}
}

// TestMaintainerAnswersSnapshotIsolated: the set Answers hands out is the
// caller's copy — mutating it must not corrupt the maintainer, and it must
// stay stable while later updates move the maintained set on.
func TestMaintainerAnswersSnapshotIsolated(t *testing.T) {
	st := buildMaintDB(t, mustCatalog(t, maintCatalog), 30, 8, 4)
	m, fixed := newQ2Maintainer(t, st, 3)
	snap := m.Answers()
	before := snap.Len()

	// Vandalize the snapshot: drain it and add a bogus tuple.
	for _, tu := range append([]relation.Tuple(nil), snap.Tuples()...) {
		snap.Remove(tu)
	}
	bogus := relation.Tuple{relation.Str("bogus")}
	snap.Add(bogus)
	if m.Len() != before {
		t.Fatalf("mutating the snapshot changed the maintainer: %d answers, want %d", m.Len(), before)
	}
	if m.Contains(bogus) {
		t.Fatal("bogus tuple leaked into the maintainer")
	}

	// Maintenance must still agree with recomputation after the vandalism.
	tu := relation.Ints(3, 1001)
	if st.Data().Rel("visit").Contains(tu) {
		tu = relation.Ints(3, 1003)
	}
	if _, _, _, err := m.Apply(context.Background(), relation.NewUpdate().Insert("visit", tu)); err != nil {
		t.Fatal(err)
	}
	checkRecomputed(t, m, st, fixed, 0)

	// An earlier snapshot is frozen: it must not see the update. The id is
	// far outside the generated range, so the tuple is guaranteed absent
	// and the assertion always runs.
	snap2 := m.Answers()
	want := snap2.Len()
	if _, _, _, err := m.Apply(context.Background(), relation.NewUpdate().Insert("visit", relation.Ints(999_999, 1005))); err != nil {
		t.Fatal(err)
	}
	if snap2.Len() != want {
		t.Fatalf("snapshot moved with the maintainer: %d, want %d", snap2.Len(), want)
	}
}
