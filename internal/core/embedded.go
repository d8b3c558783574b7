package core

import (
	"fmt"
	"sort"

	"repro/internal/access"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
)

// maxEmbeddedFreeVars bounds the subset search for minimal controlling
// sets; embedded analysis is skipped for wider formulas.
const maxEmbeddedFreeVars = 12

// embeddedDerivs attempts chase-based controllability on conjunctive
// shapes: plain entries alone already make the chase derive controlling
// sets insensitively to conjunct order, and embedded entries realize
// Proposition 4.5.
func (st *analysisState) embeddedDerivs(f query.Formula) ([]*Derivation, error) {
	rels := query.Relations(f)
	if len(rels) == 0 {
		return nil, nil
	}
	atoms, eqs, quantified, ok := conjShape(f)
	if !ok {
		return nil, nil
	}
	free := f.FreeVars()
	if free.Len() > maxEmbeddedFreeVars {
		return nil, nil
	}
	builder, err := newChaseBuilder(st.an.Acc, atoms, eqs, free, quantified)
	if err != nil {
		return nil, err
	}
	if builder == nil {
		return nil, nil
	}
	// Search minimal x̄ ⊆ free such that the chase succeeds, smallest first.
	freeVars := free.Sorted()
	var found []query.VarSet
	var derivs []*Derivation
	for size := 0; size <= len(freeVars); size++ {
		subsets(freeVars, size, func(sub []string) bool {
			x := query.NewVarSet(sub...)
			for _, m := range found {
				if m.SubsetOf(x) {
					return true // not minimal
				}
			}
			chase, ok := builder.build(x)
			if !ok {
				return true
			}
			found = append(found, x)
			derivs = append(derivs, &Derivation{Rule: RuleEmbedded, F: f, Ctrl: x, Chase: chase})
			return len(derivs) < st.max
		})
		if len(derivs) >= st.max {
			st.truncated = true
			break
		}
	}
	return derivs, nil
}

// subsets enumerates size-k subsets of items in lexicographic order,
// stopping when yield returns false.
func subsets(items []string, k int, yield func([]string) bool) {
	idx := make([]int, k)
	var rec func(start, d int) bool
	rec = func(start, d int) bool {
		if d == k {
			sub := make([]string, k)
			for i, j := range idx {
				sub[i] = items[j]
			}
			return yield(sub)
		}
		for i := start; i < len(items); i++ {
			idx[d] = i
			if !rec(i+1, d+1) {
				return false
			}
		}
		return true
	}
	rec(0, 0)
}

// conjShape decomposes ∃z̄ (conjunction of atoms and equalities), the
// fragment embedded analysis handles. It returns the atoms, equalities and
// quantified variables.
func conjShape(f query.Formula) (atoms []*query.Atom, eqs []*query.Eq, quantified query.VarSet, ok bool) {
	quantified = make(query.VarSet)
	body := f
	for {
		e, isEx := body.(*query.Exists)
		if !isEx {
			break
		}
		for _, v := range e.Vars {
			quantified[v] = true
		}
		body = e.Body
	}
	var walk func(query.Formula) bool
	walk = func(g query.Formula) bool {
		switch n := g.(type) {
		case *query.Atom:
			atoms = append(atoms, n)
			return true
		case *query.Eq:
			eqs = append(eqs, n)
			return true
		case *query.Truth:
			return n.Bool
		case *query.And:
			return walk(n.L) && walk(n.R)
		case *query.Exists:
			for _, v := range n.Vars {
				quantified[v] = true
			}
			return walk(n.Body)
		default:
			return false
		}
	}
	if !walk(body) || len(atoms) == 0 {
		return nil, nil, nil, false
	}
	return atoms, eqs, quantified, true
}

// chaseBuilder precomputes the candidate fetch steps for a conjunction and
// builds plans for specific controlling sets.
type chaseBuilder struct {
	acc        *access.Schema
	atoms      []*query.Atom
	allVars    query.VarSet
	free       query.VarSet
	quantified query.VarSet
	eqConsts   map[string]relation.Value
	eqVars     [][2]string
	// candidate fetch steps (unordered); build selects and orders them.
	fetches []plan.ChaseStep
	// occurrence count of each variable across atoms (for projection
	// verification: absorbable variables occur exactly once).
	occurs map[string]int
}

func newChaseBuilder(acc *access.Schema, atoms []*query.Atom, eqs []*query.Eq, free, quantified query.VarSet) (*chaseBuilder, error) {
	b := &chaseBuilder{
		acc:        acc,
		atoms:      atoms,
		free:       free,
		quantified: quantified,
		allVars:    make(query.VarSet),
		eqConsts:   make(map[string]relation.Value),
		occurs:     make(map[string]int),
	}
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				b.allVars[t.Name()] = true
				b.occurs[t.Name()]++
			}
		}
	}
	for _, e := range eqs {
		switch {
		case e.L.IsVar() && e.R.IsVar():
			b.eqVars = append(b.eqVars, [2]string{e.L.Name(), e.R.Name()})
			b.allVars[e.L.Name()] = true
			b.allVars[e.R.Name()] = true
		case e.L.IsVar():
			if prev, ok := b.eqConsts[e.L.Name()]; ok && prev != e.R.Value() {
				return nil, nil // unsatisfiable; no embedded derivation
			}
			b.eqConsts[e.L.Name()] = e.R.Value()
			b.allVars[e.L.Name()] = true
		case e.R.IsVar():
			if prev, ok := b.eqConsts[e.R.Name()]; ok && prev != e.L.Value() {
				return nil, nil
			}
			b.eqConsts[e.R.Name()] = e.L.Value()
			b.allVars[e.R.Name()] = true
		default:
			if e.L.Value() != e.R.Value() {
				return nil, nil
			}
		}
	}
	rel := acc.Relational()
	for ai, a := range atoms {
		rs, ok := rel.Rel(a.Rel)
		if !ok {
			return nil, fmt.Errorf("core: unknown relation %q in atom %s", a.Rel, a)
		}
		if len(a.Args) != rs.Arity() {
			return nil, fmt.Errorf("core: atom %s arity mismatch with %s", a, rs)
		}
		for _, e := range acc.Entries() {
			if e.Rel != a.Rel {
				continue
			}
			onPos, err := rs.Positions(e.On)
			if err != nil {
				return nil, err
			}
			projPos, err := rs.Positions(e.ProjFor(rs))
			if err != nil {
				return nil, err
			}
			if len(onPos) == rs.Arity() {
				continue // pure membership entry; handled at verification
			}
			b.fetches = append(b.fetches, plan.ChaseStep{
				Atom: a, AtomIdx: ai, Entry: e, OnPos: onPos, ProjPos: projPos,
			})
		}
	}
	return b, nil
}

// build attempts a chase from the controlling set x; it returns the chase
// operator and whether the chase covers the formula. The operator is the
// derivation's template: Compile hands out copies of it.
func (b *chaseBuilder) build(x query.VarSet) (*plan.ChaseExec, bool) {
	if !x.SubsetOf(b.free) {
		return nil, false
	}
	bound := x.Clone()
	for v := range b.eqConsts {
		bound = bound.Add(v)
	}
	var steps []plan.ChaseStep
	used := make([]bool, len(b.fetches))
	for {
		progress := false
		// Equality propagation first: free.
		for _, ev := range b.eqVars {
			l, r := ev[0], ev[1]
			if bound[l] != bound[r] {
				steps = append(steps, plan.ChaseStep{EqL: l, EqR: r})
				bound = bound.Add(l).Add(r)
				progress = true
			}
		}
		// Pick the available fetch with the smallest N that binds new vars.
		best := -1
		for i, fs := range b.fetches {
			if used[i] || !allArgsBoundOrConst(fs.Atom, fs.OnPos, bound) {
				continue
			}
			binds := newVarsAt(fs.Atom, fs.ProjPos, bound)
			if len(binds) == 0 {
				continue
			}
			if best < 0 || b.fetches[i].Entry.N < b.fetches[best].Entry.N {
				best = i
			}
		}
		if best >= 0 {
			fs := b.fetches[best]
			fs.Binds = newVarsAt(fs.Atom, fs.ProjPos, bound)
			for _, v := range fs.Binds {
				bound = bound.Add(v)
			}
			steps = append(steps, fs)
			used[best] = true
			progress = true
		}
		if !progress {
			break
		}
	}
	if !b.free.SubsetOf(bound) {
		return nil, false
	}
	// Variables constrained by equalities cannot be absorbed by
	// projections; they must be bound so the equality can be checked.
	for _, ev := range b.eqVars {
		if !bound[ev[0]] || !bound[ev[1]] {
			return nil, false
		}
	}
	// Verification: atoms with all variables bound get membership probes;
	// others need a projection-verifying fetch step.
	chase := plan.NewChaseExec(x.Clone())
	chase.Atoms = b.atoms
	chase.Steps = steps
	chase.Free = b.free.Clone()
	chase.EqConsts = b.eqConsts
	chase.EqVars = b.eqVars
	for ai, a := range b.atoms {
		unbound := a.FreeVars().Minus(bound)
		if unbound.IsEmpty() {
			// A membership probe needs the implicit membership access
			// method or an explicit whole-key entry.
			if !b.membershipAllowed(a.Rel) {
				if !b.markVerifier(chase, ai, bound, unbound) {
					return nil, false
				}
				continue
			}
			chase.MembershipAtoms = append(chase.MembershipAtoms, ai)
			continue
		}
		// Unbound variables must be absorbable: quantified and occurring
		// exactly once.
		for v := range unbound {
			if !b.quantified[v] || b.occurs[v] != 1 {
				return nil, false
			}
		}
		if !b.markVerifier(chase, ai, bound, unbound) {
			return nil, false
		}
	}
	return chase, true
}

// membershipAllowed reports whether fully-bound tuples of rel can be
// probed for membership.
func (b *chaseBuilder) membershipAllowed(rel string) bool {
	if b.acc.ImplicitMembership {
		return true
	}
	rs, ok := b.acc.Relational().Rel(rel)
	if !ok {
		return false
	}
	for _, e := range b.acc.Explicit() {
		if e.Rel == rel && !e.IsEmbedded() && len(e.On) == rs.Arity() {
			return true
		}
	}
	return false
}

// markVerifier finds (or appends) a fetch step on atom ai whose X ∪ Y
// covers every position not holding an absorbable unbound variable, and
// marks it as the atom's verifier.
func (b *chaseBuilder) markVerifier(chase *plan.ChaseExec, ai int, bound, unbound query.VarSet) bool {
	qualifies := func(fs plan.ChaseStep) bool {
		covered := make(map[int]bool, len(fs.OnPos)+len(fs.ProjPos))
		for _, p := range fs.OnPos {
			covered[p] = true
		}
		for _, p := range fs.ProjPos {
			covered[p] = true
		}
		for p, t := range fs.Atom.Args {
			if covered[p] {
				continue
			}
			if !t.IsVar() || !unbound[t.Name()] {
				return false
			}
		}
		return true
	}
	// Prefer a step already in the plan.
	for i := range chase.Steps {
		fs := &chase.Steps[i]
		if fs.Atom != nil && fs.AtomIdx == ai && qualifies(*fs) {
			fs.Verifies = true
			return true
		}
	}
	// Otherwise append a verify-only fetch (binds nothing new).
	for _, fs := range b.fetches {
		if fs.AtomIdx != ai || !allArgsBoundOrConst(fs.Atom, fs.OnPos, bound) || !qualifies(fs) {
			continue
		}
		step := fs
		step.Verifies = true
		step.Binds = nil
		chase.Steps = append(chase.Steps, step)
		return true
	}
	return false
}

// newVarsAt lists the variables at positions not yet bound, deduplicated,
// in position order.
func newVarsAt(a *query.Atom, positions []int, bound query.VarSet) []string {
	var out []string
	seen := make(map[string]bool)
	for _, p := range positions {
		t := a.Args[p]
		if t.IsVar() && !bound[t.Name()] && !seen[t.Name()] {
			seen[t.Name()] = true
			out = append(out, t.Name())
		}
	}
	sort.Strings(out)
	return out
}
