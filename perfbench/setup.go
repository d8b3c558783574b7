package main

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/backendtest"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workload"
)

// persons sizes every workload's database: workload.Generate at this
// person count holds about 151k tuples.
const persons = 10000

// dataConfig is the generator configuration for one seed.
func dataConfig(seed int64) workload.Config {
	cfg := workload.DefaultConfig()
	cfg.Persons = persons
	cfg.Seed = seed
	return cfg
}

// querySrc holds the text and controlling set of every query a workload
// may run.
var querySrc = map[string]struct {
	src  string
	ctrl []string
}{
	"Q1": {workload.Q1Src, []string{"p"}},
	"Q2": {workload.Q2Src, []string{"p"}},
	"Q3": {workload.Q3Src, []string{"p", "yy"}},
	"Q4": {backendtest.Q4Src, []string{"p"}},
	"Q5": {backendtest.Q5Src, []string{"p"}},
	"Q6": {backendtest.Q6Src, []string{"p"}},
}

// mixEntry is one query of a workload's mix with its share in percent.
type mixEntry struct {
	name   string
	weight int
}

// shape is one query of a mix, prepared on one engine.
type shape struct {
	name   string
	src    string
	weight int
	prep   *core.PreparedQuery
	bound  int64 // the plan's static read bound M
}

// parseQuery parses a query in either concrete syntax: rule (":-") or
// formula (":=").
func parseQuery(src string) (*query.Query, error) {
	if cq, err := parser.ParseCQ(src); err == nil {
		return cq.Query()
	}
	return parser.ParseQuery(src)
}

func prepareShapes(eng *core.Engine, mix []mixEntry) ([]*shape, error) {
	var out []*shape
	for _, m := range mix {
		qs := querySrc[m.name]
		q, err := parseQuery(qs.src)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", m.name, err)
		}
		p, err := eng.Prepare(q, query.NewVarSet(qs.ctrl...))
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", m.name, err)
		}
		out = append(out, &shape{name: m.name, src: qs.src, weight: m.weight, prep: p, bound: p.Plan().Bound.Reads})
	}
	return out, nil
}

// system is one engine over freshly generated data.
type system struct {
	cfg workload.Config
	eng *core.Engine
	tr  *tracer // nil on an untraced instance
}

// openSystem generates the data for seed and opens the single-node store
// and an engine over it; with tr the store is wrapped in the tracing
// decorator.
func openSystem(seed int64, tr *tracer) (*system, error) {
	cfg := dataConfig(seed)
	data, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	db, err := store.Open(data, workload.Access(cfg))
	if err != nil {
		return nil, err
	}
	var b store.Backend = db
	if tr != nil {
		if b, err = traceStore(db, tr); err != nil {
			return nil, err
		}
	}
	return &system{cfg: cfg, eng: core.NewEngine(b), tr: tr}, nil
}

// binder draws the bindings of a workload's reads from its seed: a person
// uniform over the generated ones, and for Q3 a year uniform over the
// generated years.
type binder struct {
	rng    *rand.Rand
	shapes []*shape
	total  int
	years  []int
}

func newBinder(seed int64, shapes []*shape, years []int) *binder {
	b := &binder{rng: rand.New(rand.NewSource(seed)), shapes: shapes, years: years}
	for _, s := range shapes {
		b.total += s.weight
	}
	return b
}

// next draws one read: its query (by the mix's weights) and bindings.
func (b *binder) next() (int, query.Bindings) {
	w := b.rng.Intn(b.total)
	i := 0
	for w >= b.shapes[i].weight {
		w -= b.shapes[i].weight
		i++
	}
	return i, b.bind(b.shapes[i].name, int64(b.rng.Intn(persons)))
}

func (b *binder) bind(name string, p int64) query.Bindings {
	fixed := query.Bindings{"p": relation.Int(p)}
	if name == "Q3" {
		fixed["yy"] = relation.Int(int64(b.years[b.rng.Intn(len(b.years))]))
	}
	return fixed
}

// typed reports whether err belongs to the engine's or the serving tier's
// typed error taxonomy.
func typed(err error) bool {
	var adm *server.AdmissionError
	if errors.As(err, &adm) {
		return true
	}
	for _, e := range []error{core.ErrNotControllable, core.ErrBudgetExceeded, core.ErrCanceled,
		core.ErrUnboundHead, core.ErrNoRows, core.ErrWatchNotMaintainable, core.ErrInvalidUpdate,
		core.ErrSlowConsumer, core.ErrInvalidQuery, core.ErrViewExists, core.ErrUnknownView} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// neighbourhoods slices a snapshot of the base data around one person p:
// every friend edge from or to p, the person and visit tuples of p and of
// those friends, and all restaurants. Each query the benchmark runs binds
// p and reaches other tuples only through these, and the negated person
// atom of Q5 only asks about p's friends, whose person tuples are in the
// slice; so naive evaluation over the slice gives the same answers as
// over the whole database, at a size the nested-loop oracle can afford.
type neighbourhoods struct {
	schema     *relation.Schema
	out, in    map[relation.Value][]relation.Tuple
	person     map[relation.Value]relation.Tuple
	visits     map[relation.Value][]relation.Tuple
	restaurant []relation.Tuple
}

func newNeighbourhoods(data *relation.Database) *neighbourhoods {
	n := &neighbourhoods{
		schema: workload.Schema(),
		out:    map[relation.Value][]relation.Tuple{},
		in:     map[relation.Value][]relation.Tuple{},
		person: map[relation.Value]relation.Tuple{},
		visits: map[relation.Value][]relation.Tuple{},
	}
	for _, t := range data.Rel("friend").Tuples() {
		n.out[t[0]] = append(n.out[t[0]], t)
		n.in[t[1]] = append(n.in[t[1]], t)
	}
	for _, t := range data.Rel("person").Tuples() {
		n.person[t[0]] = t
	}
	for _, t := range data.Rel("visit").Tuples() {
		n.visits[t[0]] = append(n.visits[t[0]], t)
	}
	n.restaurant = data.Rel("restr").Tuples()
	return n
}

func (n *neighbourhoods) around(p relation.Value) *relation.Database {
	db := relation.NewDatabase(n.schema)
	ids := []relation.Value{p}
	for _, t := range n.out[p] {
		db.Insert("friend", t) //nolint:errcheck // a tuple of the same schema
		ids = append(ids, t[1])
	}
	for _, t := range n.in[p] {
		db.Insert("friend", t) //nolint:errcheck // as above
		ids = append(ids, t[0])
	}
	for _, id := range ids {
		if t, ok := n.person[id]; ok {
			db.Insert("person", t) //nolint:errcheck // as above
		}
		for _, t := range n.visits[id] {
			db.Insert("visit", t) //nolint:errcheck // as above
		}
	}
	for _, t := range n.restaurant {
		db.Insert("restr", t) //nolint:errcheck // as above
	}
	return db
}

// checkOracle compares, for each shape and each of n bindings drawn from
// seed, the prepared plan's answers against the eval oracle: naive
// evaluation over the binding's neighbourhood in an uncounted snapshot of
// the engine's data.
func checkOracle(sys *system, shapes []*shape, seed int64, n int) []string {
	hood := newNeighbourhoods(sys.eng.DB.CloneData())
	b := newBinder(seed, shapes, sys.cfg.Years)
	var problems []string
	for _, sh := range shapes {
		for i := 0; i < n; i++ {
			fixed := b.bind(sh.name, int64(b.rng.Intn(persons)))
			want, err := oracle(sh, eval.DBSource{DB: hood.around(fixed["p"])}, fixed)
			if err != nil {
				problems = append(problems, fmt.Sprintf("oracle %s %v: %v", sh.name, fixed, err))
				continue
			}
			got, err := sh.prep.Exec(bg, fixed, core.WithoutTrace())
			if err != nil {
				problems = append(problems, fmt.Sprintf("exec %s %v: %v", sh.name, fixed, err))
				continue
			}
			if !got.Tuples.Equal(want) {
				problems = append(problems, fmt.Sprintf("%s %v: %d answers, oracle has %d", sh.name, fixed, got.Tuples.Len(), want.Len()))
			}
		}
	}
	return problems
}

// q5Pos and q5NYC split Q5 for the oracle into its positive part, with
// the friend f kept in the head, and its negated atom.
const (
	q5Pos = "Q5pos(p, rn, f) :- friend(p, f), visit(f, rid, yy, mm, dd), restr(rid, rn, city, rating)"
	q5NYC = "NYC(f) :- person(f, fn, 'NYC')"
)

// oracle evaluates sh naively over src. Q5's negated atom would send eval
// to enumerating assignments of its seven quantified variables over the
// active domain, so Q5 is evaluated as its two conjunctive parts: the
// answers rn of the positive part whose friend f is not an NYC person.
func oracle(sh *shape, src eval.Source, fixed query.Bindings) (*relation.TupleSet, error) {
	if sh.name != "Q5" {
		return eval.Answers(src, sh.prep.Stmt(), fixed)
	}
	pos, err := parseQuery(q5Pos)
	if err != nil {
		return nil, err
	}
	neg, err := parseQuery(q5NYC)
	if err != nil {
		return nil, err
	}
	withF, err := eval.Answers(src, pos, fixed)
	if err != nil {
		return nil, err
	}
	nyc, err := eval.Answers(src, neg, nil)
	if err != nil {
		return nil, err
	}
	out := relation.NewTupleSet(0)
	for _, t := range withF.Tuples() {
		if !nyc.Contains(relation.Tuple{t[1]}) {
			out.Add(relation.Tuple{t[0]})
		}
	}
	return out, nil
}
