package ra

import (
	"fmt"

	"repro/internal/query"
)

// LowerQuery translates e into an FO query with head e.Attrs(), the
// relational-algebra-to-calculus direction of Codd's theorem:
//
//   - a base relation is an atom;
//   - σ conjoins = and ¬= literals;
//   - π quantifies the dropped attributes existentially;
//   - ρ renames nothing in the formula, it only re-labels the head;
//   - ⋈ is ∧ over shared variables, ∪ is ∨, and − is ∧ ¬.
//
// Variables are handed down per attribute position, so a renaming costs
// nothing and no substitution can capture: the only variables are the
// head's and the fresh ones. Each attribute π drops gets a variable fresh
// in the whole query, so nested ∃ prefixes flatten soundly and an SPJ
// expression lowers to a body query.AsCQ recognises.
func LowerQuery(name string, e Expr) (*query.Query, error) {
	l := &lowering{used: attrSet(e.Attrs())}
	return query.NewQuery(name, e.Attrs(), l.lower(e, e.Attrs()))
}

// lowering allocates variable names fresh in the query.
type lowering struct {
	used map[string]bool
	n    int
}

func (l *lowering) fresh(base string) string {
	for {
		l.n++
		v := fmt.Sprintf("%s_%d", base, l.n)
		if !l.used[v] {
			l.used[v] = true
			return v
		}
	}
}

// lower returns a formula whose free variables are vars, one per
// attribute of e in order.
func (l *lowering) lower(e Expr, vars []string) query.Formula {
	switch n := e.(type) {
	case *Rel:
		return query.NewAtom(n.Schema.Name, query.Vars(vars...)...)
	case *Select:
		pos := positions(n.E.Attrs())
		conj := []query.Formula{l.lower(n.E, vars)}
		for _, p := range n.Conds {
			r := query.Const(p.Const)
			if p.RAttr != "" {
				r = query.Var(vars[pos[p.RAttr]])
			}
			var lit query.Formula = query.NewEq(query.Var(vars[pos[p.L]]), r)
			if p.Neq {
				lit = query.NewNot(lit)
			}
			conj = append(conj, lit)
		}
		return query.AndAll(conj...)
	case *Project:
		keep := positions(n.Cols)
		inner := make([]string, len(n.E.Attrs()))
		var dropped []string
		for i, a := range n.E.Attrs() {
			if j, ok := keep[a]; ok {
				inner[i] = vars[j]
				continue
			}
			inner[i] = l.fresh(a)
			dropped = append(dropped, inner[i])
		}
		return query.NewExists(dropped, l.lower(n.E, inner))
	case *Rename:
		return l.lower(n.E, vars)
	case *Join:
		pos := positions(n.attrs)
		rvars := make([]string, len(n.R.Attrs()))
		for i, a := range n.R.Attrs() {
			rvars[i] = vars[pos[a]]
		}
		return query.NewAnd(l.lower(n.L, vars[:len(n.L.Attrs())]), l.lower(n.R, rvars))
	case *Union:
		return query.NewOr(l.lower(n.L, vars), l.lower(n.R, vars))
	case *Diff:
		return query.NewAnd(l.lower(n.L, vars), query.NewNot(l.lower(n.R, vars)))
	default:
		panic(fmt.Sprintf("ra: unknown expression %T", e))
	}
}
