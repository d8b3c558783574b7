// Package ra implements the relational algebra side of Section 5 of the
// paper: expressions over named attributes, the RAA_A rule system of
// Theorem 5.4 (scale independence and incremental scale independence of
// σ_X=ā(E)), LowerQuery onto the query IR, and Eval, the reference
// evaluator.
//
// Maintenance belongs to the engine: a lowered expression is watched
// through core.Engine like any other query. SPJ bodies take the engine's
// delta plans, whose deltas satisfy the Griffin–Libkin–Trickey [14]
// invariants ∇E ⊆ E and ∆E ∩ E = ∅; other bodies are maintained by
// bounded re-execution.
//
// Joins are natural joins on shared attribute names; selections are
// conjunctions of (in)equality predicates; set semantics throughout.
package ra

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// Expr is a relational algebra expression. The node types are Rel, Select,
// Project, Union, Diff and Join.
type Expr interface {
	// Attrs returns the output attribute names, in order.
	Attrs() []string
	fmt.Stringer
	isExpr()
}

// Rel is a base relation reference.
type Rel struct {
	Schema relation.RelSchema
}

// NewRel references a base relation.
func NewRel(rs relation.RelSchema) *Rel { return &Rel{Schema: rs} }

func (r *Rel) isExpr() {}

// Attrs implements Expr.
func (r *Rel) Attrs() []string { return r.Schema.Attrs }

func (r *Rel) String() string { return r.Schema.Name }

// Pred is one selection predicate: L op R where R is an attribute or a
// constant and op is = or ≠.
type Pred struct {
	L     string
	RAttr string         // right attribute; empty when a constant is used
	Const relation.Value // right constant when RAttr is empty
	Neq   bool
}

// EqAttr builds L = R over attributes.
func EqAttr(l, r string) Pred { return Pred{L: l, RAttr: r} }

// EqConst builds L = c.
func EqConst(l string, c relation.Value) Pred { return Pred{L: l, Const: c} }

// NeqAttr builds L ≠ R.
func NeqAttr(l, r string) Pred { return Pred{L: l, RAttr: r, Neq: true} }

// NeqConst builds L ≠ c.
func NeqConst(l string, c relation.Value) Pred { return Pred{L: l, Const: c, Neq: true} }

func (p Pred) String() string {
	op := "="
	if p.Neq {
		op = "!="
	}
	if p.RAttr != "" {
		return fmt.Sprintf("%s %s %s", p.L, op, p.RAttr)
	}
	return fmt.Sprintf("%s %s %s", p.L, op, p.Const)
}

// eval evaluates the predicate on a tuple laid out per attrs positions.
func (p Pred) eval(t relation.Tuple, pos map[string]int) bool {
	l := t[pos[p.L]]
	var r relation.Value
	if p.RAttr != "" {
		r = t[pos[p.RAttr]]
	} else {
		r = p.Const
	}
	if p.Neq {
		return l != r
	}
	return l == r
}

// Select is σ_conds(E); conds is a conjunction.
type Select struct {
	E     Expr
	Conds []Pred
}

// NewSelect validates attribute references.
func NewSelect(e Expr, conds ...Pred) (*Select, error) {
	have := attrSet(e.Attrs())
	for _, p := range conds {
		if !have[p.L] {
			return nil, fmt.Errorf("ra: select: unknown attribute %q in %s", p.L, e)
		}
		if p.RAttr != "" && !have[p.RAttr] {
			return nil, fmt.Errorf("ra: select: unknown attribute %q in %s", p.RAttr, e)
		}
	}
	return &Select{E: e, Conds: conds}, nil
}

// MustSelect panics on error.
func MustSelect(e Expr, conds ...Pred) *Select {
	s, err := NewSelect(e, conds...)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Select) isExpr() {}

// Attrs implements Expr.
func (s *Select) Attrs() []string { return s.E.Attrs() }

func (s *Select) String() string {
	parts := make([]string, len(s.Conds))
	for i, p := range s.Conds {
		parts[i] = p.String()
	}
	return fmt.Sprintf("σ[%s](%s)", strings.Join(parts, " ∧ "), s.E)
}

// Project is π_cols(E).
type Project struct {
	E    Expr
	Cols []string
}

// NewProject validates the projection list.
func NewProject(e Expr, cols ...string) (*Project, error) {
	have := attrSet(e.Attrs())
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if !have[c] {
			return nil, fmt.Errorf("ra: project: unknown attribute %q in %s", c, e)
		}
		if seen[c] {
			return nil, fmt.Errorf("ra: project: duplicate attribute %q", c)
		}
		seen[c] = true
	}
	return &Project{E: e, Cols: cols}, nil
}

// MustProject panics on error.
func MustProject(e Expr, cols ...string) *Project {
	p, err := NewProject(e, cols...)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Project) isExpr() {}

// Attrs implements Expr.
func (p *Project) Attrs() []string { return p.Cols }

func (p *Project) String() string {
	return fmt.Sprintf("π[%s](%s)", strings.Join(p.Cols, ","), p.E)
}

// Rename is ρ(E): attribute renaming, needed to align natural joins. The
// tuple layout is unchanged; only names differ.
type Rename struct {
	E     Expr
	names []string
}

// NewRename renames attributes per the mapping (attributes absent from the
// mapping keep their names). The resulting names must be distinct.
func NewRename(e Expr, mapping map[string]string) (*Rename, error) {
	names := make([]string, len(e.Attrs()))
	seen := make(map[string]bool, len(names))
	for i, a := range e.Attrs() {
		n := a
		if to, ok := mapping[a]; ok {
			n = to
		}
		if seen[n] {
			return nil, fmt.Errorf("ra: rename: duplicate output attribute %q", n)
		}
		seen[n] = true
		names[i] = n
	}
	for from := range mapping {
		if !attrSet(e.Attrs())[from] {
			return nil, fmt.Errorf("ra: rename: unknown attribute %q in %s", from, e)
		}
	}
	return &Rename{E: e, names: names}, nil
}

// MustRename panics on error.
func MustRename(e Expr, mapping map[string]string) *Rename {
	r, err := NewRename(e, mapping)
	if err != nil {
		panic(err)
	}
	return r
}

func (r *Rename) isExpr() {}

// Attrs implements Expr.
func (r *Rename) Attrs() []string { return r.names }

func (r *Rename) String() string {
	return fmt.Sprintf("ρ[%s](%s)", strings.Join(r.names, ","), r.E)
}

// Union is E1 ∪ E2 (same attribute lists).
type Union struct{ L, R Expr }

// NewUnion requires identical attribute lists.
func NewUnion(l, r Expr) (*Union, error) {
	if !sameAttrs(l.Attrs(), r.Attrs()) {
		return nil, fmt.Errorf("ra: union: attribute mismatch %v vs %v", l.Attrs(), r.Attrs())
	}
	return &Union{L: l, R: r}, nil
}

// MustUnion panics on error.
func MustUnion(l, r Expr) *Union {
	u, err := NewUnion(l, r)
	if err != nil {
		panic(err)
	}
	return u
}

func (u *Union) isExpr() {}

// Attrs implements Expr.
func (u *Union) Attrs() []string { return u.L.Attrs() }

func (u *Union) String() string { return fmt.Sprintf("(%s ∪ %s)", u.L, u.R) }

// Diff is E1 − E2 (same attribute lists).
type Diff struct{ L, R Expr }

// NewDiff requires identical attribute lists.
func NewDiff(l, r Expr) (*Diff, error) {
	if !sameAttrs(l.Attrs(), r.Attrs()) {
		return nil, fmt.Errorf("ra: diff: attribute mismatch %v vs %v", l.Attrs(), r.Attrs())
	}
	return &Diff{L: l, R: r}, nil
}

// MustDiff panics on error.
func MustDiff(l, r Expr) *Diff {
	d, err := NewDiff(l, r)
	if err != nil {
		panic(err)
	}
	return d
}

func (d *Diff) isExpr() {}

// Attrs implements Expr.
func (d *Diff) Attrs() []string { return d.L.Attrs() }

func (d *Diff) String() string { return fmt.Sprintf("(%s − %s)", d.L, d.R) }

// Join is the natural join E1 ⋈ E2 on shared attribute names.
type Join struct {
	L, R Expr
	// derived layout
	attrs  []string
	shared []string
}

// NewJoin builds a natural join.
func NewJoin(l, r Expr) *Join {
	j := &Join{L: l, R: r}
	left := attrSet(l.Attrs())
	j.attrs = append(j.attrs, l.Attrs()...)
	for _, a := range r.Attrs() {
		if left[a] {
			j.shared = append(j.shared, a)
		} else {
			j.attrs = append(j.attrs, a)
		}
	}
	return j
}

func (j *Join) isExpr() {}

// Attrs implements Expr.
func (j *Join) Attrs() []string { return j.attrs }

func (j *Join) String() string { return fmt.Sprintf("(%s ⋈ %s)", j.L, j.R) }

func attrSet(attrs []string) map[string]bool {
	out := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		out[a] = true
	}
	return out
}

func sameAttrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// positions maps attribute names to indices.
func positions(attrs []string) map[string]int {
	out := make(map[string]int, len(attrs))
	for i, a := range attrs {
		out[a] = i
	}
	return out
}

// Eval evaluates e over the database by full scans: the reference oracle
// that maintained answers are checked against.
func Eval(e Expr, db *relation.Database) (*relation.TupleSet, error) {
	switch n := e.(type) {
	case *Rel:
		r := db.Rel(n.Schema.Name)
		if r == nil {
			return nil, fmt.Errorf("ra: unknown relation %q", n.Schema.Name)
		}
		out := relation.NewTupleSet(r.Len())
		out.AddAll(r.Tuples())
		return out, nil
	case *Select:
		in, err := Eval(n.E, db)
		if err != nil {
			return nil, err
		}
		pos := positions(n.E.Attrs())
		out := relation.NewTupleSet(0)
		for _, t := range in.Tuples() {
			ok := true
			for _, p := range n.Conds {
				if !p.eval(t, pos) {
					ok = false
					break
				}
			}
			if ok {
				out.Add(t)
			}
		}
		return out, nil
	case *Project:
		in, err := Eval(n.E, db)
		if err != nil {
			return nil, err
		}
		pos := positions(n.E.Attrs())
		idx := make([]int, len(n.Cols))
		for i, c := range n.Cols {
			idx[i] = pos[c]
		}
		out := relation.NewTupleSet(0)
		for _, t := range in.Tuples() {
			out.Add(t.Project(idx))
		}
		return out, nil
	case *Rename:
		return Eval(n.E, db)
	case *Union:
		l, err := Eval(n.L, db)
		if err != nil {
			return nil, err
		}
		r, err := Eval(n.R, db)
		if err != nil {
			return nil, err
		}
		out := l.Clone()
		out.AddAll(r.Tuples())
		return out, nil
	case *Diff:
		l, err := Eval(n.L, db)
		if err != nil {
			return nil, err
		}
		r, err := Eval(n.R, db)
		if err != nil {
			return nil, err
		}
		out := relation.NewTupleSet(0)
		for _, t := range l.Tuples() {
			if !r.Contains(t) {
				out.Add(t)
			}
		}
		return out, nil
	case *Join:
		l, err := Eval(n.L, db)
		if err != nil {
			return nil, err
		}
		r, err := Eval(n.R, db)
		if err != nil {
			return nil, err
		}
		return hashJoin(n, l.Tuples(), r.Tuples()), nil
	default:
		return nil, fmt.Errorf("ra: unknown expression %T", e)
	}
}

// hashJoin joins two tuple lists per the join's layout.
func hashJoin(j *Join, left, right []relation.Tuple) *relation.TupleSet {
	lpos := positions(j.L.Attrs())
	rpos := positions(j.R.Attrs())
	lkey := make([]int, len(j.shared))
	rkey := make([]int, len(j.shared))
	for i, a := range j.shared {
		lkey[i] = lpos[a]
		rkey[i] = rpos[a]
	}
	// Right-side non-shared positions, in output order.
	var rextra []int
	for _, a := range j.R.Attrs() {
		if _, isLeft := lpos[a]; !isLeft {
			rextra = append(rextra, rpos[a])
		}
	}
	byKey := make(map[string][]relation.Tuple)
	for _, rt := range right {
		k := rt.Project(rkey).Key()
		byKey[k] = append(byKey[k], rt)
	}
	out := relation.NewTupleSet(0)
	for _, lt := range left {
		k := lt.Project(lkey).Key()
		for _, rt := range byKey[k] {
			out.Add(composeJoin(lt, rt, rextra))
		}
	}
	return out
}

// composeJoin concatenates a left tuple with the right tuple's non-shared
// attributes.
func composeJoin(lt, rt relation.Tuple, rextra []int) relation.Tuple {
	t := make(relation.Tuple, 0, len(lt)+len(rextra))
	t = append(t, lt...)
	for _, p := range rextra {
		t = append(t, rt[p])
	}
	return t
}
