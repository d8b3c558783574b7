// Package incr implements the decision side of incremental scale
// independence (Section 5 of the paper): DecideDeltaQSI (∆QSI, Theorems
// 5.1/5.2) is a definition-level decider for small instances — for every
// candidate update, search for a witness D_Q ⊆ D of size ≤ M from which
// the exact answer delta is computable.
//
// The constructive side (Corollary 5.3, Proposition 5.5, Example 5.6) is
// core.Maintainer: per-occurrence maintenance plans compiled through the
// physical plan IR, bounded deletion re-verification, and N-derived
// per-delta read bounds enforced at runtime. The engine's Commit pipeline
// and the Live subscription API (PreparedQuery.Watch) drive it.
package incr

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/qdsi"
	"repro/internal/query"
	"repro/internal/relation"
)

// DecideDeltaQSI decides the ∆QSI question on a concrete instance: for
// every update in candidates (each of size ≤ k by the caller's choice),
// does some D_Q ⊆ D with |D_Q| ≤ M compute the exact answer delta? The
// maintenance semantics is the canonical one: ∆Q(∆D, D_Q) is the delta of
// Q between D_Q and D_Q ⊕ ∆D. Exponential in |D|; intended for the small
// instances of the Theorem 5.1/5.2 experiments.
func DecideDeltaQSI(q *query.Query, d *relation.Database, candidates []*relation.Update, m int, opt qdsi.Options) (bool, int64, error) {
	oldAnswers, err := eval.Answers(eval.DBSource{DB: d}, q, nil)
	if err != nil {
		return false, 0, err
	}
	var checks int64
	budget := opt.MaxChecks
	if budget <= 0 {
		budget = qdsi.DefaultMaxChecks
	}
	tuples := flatten(d)
	for _, u := range candidates {
		newDB, err := d.Applied(u)
		if err != nil {
			return false, checks, err
		}
		target, err := eval.Answers(eval.DBSource{DB: newDB}, q, nil)
		if err != nil {
			return false, checks, err
		}
		found := false
		size := m
		if size > len(tuples) {
			size = len(tuples)
		}
		for sz := 0; sz <= size && !found; sz++ {
			err := forEachSubset(len(tuples), sz, func(idx []int) (bool, error) {
				checks++
				if checks > budget {
					return false, qdsi.ErrBudget
				}
				dq := relation.NewDatabase(d.Schema())
				for _, i := range idx {
					dq.MustInsert(tuples[i].rel, tuples[i].t)
				}
				ok, err := deltaWitnesses(q, dq, u, oldAnswers, target)
				if err != nil {
					return false, err
				}
				if ok {
					found = true
					return false, nil
				}
				return true, nil
			})
			if err != nil {
				return false, checks, err
			}
		}
		if !found {
			return false, checks, nil
		}
	}
	return true, checks, nil
}

// deltaWitnesses checks whether the delta computed from (D_Q, ∆D) turns
// the old answers into the target answers.
func deltaWitnesses(q *query.Query, dq *relation.Database, u *relation.Update, oldAnswers, target *relation.TupleSet) (bool, error) {
	before, err := eval.Answers(eval.DBSource{DB: dq}, q, nil)
	if err != nil {
		return false, err
	}
	dqNew := dq.Clone()
	if err := applyLoose(dqNew, u); err != nil {
		return false, err
	}
	after, err := eval.Answers(eval.DBSource{DB: dqNew}, q, nil)
	if err != nil {
		return false, err
	}
	// ∆ = after − before, ∇ = before − after; apply to the old answers.
	result := oldAnswers.Clone()
	for _, t := range before.Tuples() {
		if !after.Contains(t) {
			result.Remove(t)
		}
	}
	for _, t := range after.Tuples() {
		if !before.Contains(t) {
			result.Add(t)
		}
	}
	return result.Equal(target), nil
}

// applyLoose applies an update ignoring deletions of absent tuples (D_Q
// may not contain them).
func applyLoose(db *relation.Database, u *relation.Update) error {
	for rel, ts := range u.Del {
		r := db.Rel(rel)
		if r == nil {
			return fmt.Errorf("incr: unknown relation %q", rel)
		}
		for _, t := range ts {
			r.Delete(t)
		}
	}
	for rel, ts := range u.Ins {
		r := db.Rel(rel)
		if r == nil {
			return fmt.Errorf("incr: unknown relation %q", rel)
		}
		for _, t := range ts {
			if !r.Contains(t) {
				if _, err := r.Insert(t); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

type taggedTuple struct {
	rel string
	t   relation.Tuple
}

func flatten(d *relation.Database) []taggedTuple {
	var out []taggedTuple
	for _, name := range d.Schema().Names() {
		for _, t := range d.Rel(name).Tuples() {
			out = append(out, taggedTuple{rel: name, t: t})
		}
	}
	return out
}

func forEachSubset(n, k int, yield func([]int) (bool, error)) error {
	idx := make([]int, k)
	var rec func(start, d int) (bool, error)
	rec = func(start, d int) (bool, error) {
		if d == k {
			return yield(idx)
		}
		for i := start; i <= n-(k-d); i++ {
			idx[d] = i
			cont, err := rec(i+1, d+1)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	_, err := rec(0, 0)
	return err
}

// SingleTupleUpdates enumerates candidate single-tuple updates: one
// insertion per tuple in pool (absent from D) and one deletion per present
// tuple.
func SingleTupleUpdates(d *relation.Database, pool map[string][]relation.Tuple) []*relation.Update {
	var out []*relation.Update
	for rel, ts := range pool {
		r := d.Rel(rel)
		if r == nil {
			continue
		}
		for _, t := range ts {
			if !r.Contains(t) {
				out = append(out, relation.NewUpdate().Insert(rel, t))
			}
		}
	}
	for _, name := range d.Schema().Names() {
		for _, t := range d.Rel(name).Tuples() {
			out = append(out, relation.NewUpdate().Delete(name, t))
		}
	}
	return out
}
