package incr

import (
	"testing"

	"repro/internal/parser"
	"repro/internal/qdsi"
	"repro/internal/relation"
)

func TestDecideDeltaQSISmall(t *testing.T) {
	s := relation.MustSchema(relation.MustRelSchema("R", "a", "b"))
	d := relation.NewDatabase(s)
	d.MustInsert("R", relation.Ints(1, 1))
	d.MustInsert("R", relation.Ints(2, 2))
	q, err := parser.ParseQuery("Q(x) := exists y (R(x, y))")
	if err != nil {
		t.Fatal(err)
	}
	pool := map[string][]relation.Tuple{"R": {relation.Ints(1, 5), relation.Ints(3, 3)}}
	updates := SingleTupleUpdates(d, pool)
	if len(updates) != 4 { // 2 insertions + 2 deletions
		t.Fatalf("updates = %d", len(updates))
	}
	// With M = |D| the delta is always computable (use all of D).
	ok, _, err := DecideDeltaQSI(q, d, updates, d.Size(), qdsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("M=|D| must suffice")
	}
	// With M = 0: an insertion R(1,5) requires knowing whether x=1 was
	// already an answer — the empty D_Q claims ∆ = {1}, but 1 ∈ Q(D), so
	// the delta would wrongly re-add it... set semantics absorbs that.
	// Deletion of R(1,1) is the crux: with D_Q = ∅ the delta is empty,
	// but Q changes (answer 1 disappears). So M=0 must fail.
	ok, _, err = DecideDeltaQSI(q, d, updates, 0, qdsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("M=0 must fail for deletions")
	}
}

// Insert-only workloads: the delta of a monotone query needs only the
// witness tuples for genuinely new answers.
func TestDecideDeltaQSIInsertOnly(t *testing.T) {
	s := relation.MustSchema(
		relation.MustRelSchema("R", "a", "b"),
		relation.MustRelSchema("S", "b"),
	)
	d := relation.NewDatabase(s)
	d.MustInsert("R", relation.Ints(1, 10))
	d.MustInsert("S", relation.Ints(10))
	d.MustInsert("S", relation.Ints(20))
	q, err := parser.ParseQuery("Q(x) := exists y (R(x, y) and S(y))")
	if err != nil {
		t.Fatal(err)
	}
	// Insertion R(2, 20): the new answer 2 needs S(20) from D: M=1 works.
	updates := []*relation.Update{relation.NewUpdate().Insert("R", relation.Ints(2, 20))}
	ok, _, err := DecideDeltaQSI(q, d, updates, 1, qdsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("M=1 should suffice: fetch S(20)")
	}
	ok, _, err = DecideDeltaQSI(q, d, updates, 0, qdsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("M=0 should fail: S(20) must be read")
	}
}

func TestDecideDeltaQSIBudget(t *testing.T) {
	// The full-input cycle query of Proposition 3.6: after deleting one
	// edge the delta is computable only from a D_Q containing the whole
	// cycle, so with M below |D| every subset fails and the enumeration
	// exhausts a small budget.
	s := relation.MustSchema(relation.MustRelSchema("R", "a", "b"))
	d := relation.NewDatabase(s)
	n := int64(10)
	for i := int64(0); i < n; i++ {
		d.MustInsert("R", relation.Ints(i, (i+1)%n))
	}
	q, err := parser.ParseQuery("Q() := (exists x, y (R(x, y))) and (forall x, y (R(x, y) implies exists z (R(y, z))))")
	if err != nil {
		t.Fatal(err)
	}
	updates := []*relation.Update{relation.NewUpdate().Delete("R", relation.Ints(0, 1))}
	_, _, err = DecideDeltaQSI(q, d, updates, 5, qdsi.Options{MaxChecks: 25})
	if err == nil {
		t.Fatal("expected budget exhaustion")
	}
}
