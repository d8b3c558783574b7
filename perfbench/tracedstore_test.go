package main

import (
	"context"
	"testing"

	"repro/internal/access"
	"repro/internal/backendtest"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestTracedStoreIsTransparent checks that the store decorator changes
// nothing the engine can observe: over the query sets of all three
// workloads, on the single-node and the sharded backend, EXPLAIN text,
// answers and per-query Counters are identical with and without it, and
// so are commit results and live snapshots under a mixed commit stream
// with watchers and the VFol view.
func TestTracedStoreIsTransparent(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Persons = 300
	cfg.Seed = 5
	backends := []struct {
		name string
		open func(*relation.Database) (store.Backend, error)
	}{
		{"single-node", func(d *relation.Database) (store.Backend, error) { return store.Open(d, workload.Access(cfg)) }},
		{"sharded", func(d *relation.Database) (store.Backend, error) { return shard.Open(d, workload.Access(cfg), 3) }},
	}
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			tr := newTracer()
			var engines [2]*core.Engine // plain, traced
			for i := range engines {
				data, err := workload.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				b, err := bk.open(data)
				if err != nil {
					t.Fatal(err)
				}
				if i == 1 {
					plain := optionals(b)
					if b, err = traceStore(b, tr); err != nil {
						t.Fatal(err)
					}
					if got := optionals(b); got != plain {
						t.Fatalf("decorator implements optional set %07b, the backend %07b", got, plain)
					}
				}
				engines[i] = core.NewEngine(b)
				def, err := parser.ParseCQ(backendtest.VFolSrc)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := engines[i].CreateView(def, access.Plain("VFol", []string{"p"}, cfg.MaxFriends+64, 1)); err != nil {
					t.Fatal(err)
				}
			}
			sameQueries(t, engines, cfg)
			sameCommits(t, engines, cfg)
			if len(tr.snapshot()) == 0 {
				t.Fatal("the decorator recorded no spans")
			}
		})
	}
}

func sameQueries(t *testing.T, engines [2]*core.Engine, cfg workload.Config) {
	t.Helper()
	ctx := context.Background()
	for _, name := range []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6"} {
		qs := querySrc[name]
		var preps [2]*core.PreparedQuery
		for i, eng := range engines {
			q, err := parseQuery(qs.src)
			if err != nil {
				t.Fatal(err)
			}
			if preps[i], err = eng.Prepare(q, query.NewVarSet(qs.ctrl...)); err != nil {
				t.Fatalf("prepare %s: %v", name, err)
			}
		}
		if a, b := preps[0].Explain(), preps[1].Explain(); a != b {
			t.Fatalf("%s: EXPLAIN differs with the decorator:\n%s\nwithout:\n%s", name, b, a)
		}
		bd := newBinder(int64(len(name)), nil, cfg.Years)
		for k := 0; k < 20; k++ {
			fixed := bd.bind(name, int64(k*37%cfg.Persons))
			var ans [2]*core.Answer
			for i, p := range preps {
				var err error
				if ans[i], err = p.Exec(ctx, fixed); err != nil {
					t.Fatalf("%s %v: %v", name, fixed, err)
				}
			}
			if ans[0].Cost != ans[1].Cost || !ans[0].Tuples.Equal(ans[1].Tuples) {
				t.Fatalf("%s %v: %v and %d answers with the decorator, %v and %d without",
					name, fixed, ans[1].Cost, ans[1].Tuples.Len(), ans[0].Cost, ans[0].Tuples.Len())
			}
		}
	}
}

func sameCommits(t *testing.T, engines [2]*core.Engine, cfg workload.Config) {
	t.Helper()
	ctx := context.Background()
	data, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hot := []int64{3, 4, 5, 41}
	commits := workload.MixedCommits(data, cfg, 150, hot, 9)
	q2, err := parseQuery(workload.Q2Src)
	if err != nil {
		t.Fatal(err)
	}
	var lives [2][]*core.Live
	for i, eng := range engines {
		p, err := eng.Prepare(q2, query.NewVarSet("p"))
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hot {
			l, err := p.Watch(ctx, query.Bindings{"p": relation.Int(h)})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			lives[i] = append(lives[i], l)
		}
	}
	for k, u := range commits {
		var res [2]*core.CommitResult
		for i, eng := range engines {
			if res[i], err = eng.Commit(ctx, u); err != nil {
				t.Fatalf("commit %d: %v", k, err)
			}
		}
		a, b := *res[0], *res[1]
		a.Phases, b.Phases = core.CommitPhases{}, core.CommitPhases{}
		if a != b {
			t.Fatalf("commit %d: %+v with the decorator, %+v without", k, b, a)
		}
	}
	for j := range hot {
		a, b := lives[0][j], lives[1][j]
		if a.Cost() != b.Cost() || !a.Snapshot().Equal(b.Snapshot()) || a.Err() != nil || b.Err() != nil {
			t.Fatalf("watcher p=%d: cost %v, %d answers, err %v with the decorator; %v, %d, %v without",
				hot[j], b.Cost(), b.Snapshot().Len(), b.Err(), a.Cost(), a.Snapshot().Len(), a.Err())
		}
	}
}

// TestTraceStoreRefusesUnknownSets checks that a backend whose optional
// interfaces no decorator type reproduces is refused, not silently
// narrowed.
func TestTraceStoreRefusesUnknownSets(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Persons = 50
	data, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Open(data, workload.Access(cfg))
	if err != nil {
		t.Fatal(err)
	}
	bare := struct{ store.Backend }{db} // hides every optional interface
	if _, err := traceStore(bare, newTracer()); err == nil {
		t.Fatal("traceStore accepted a backend without the optional interfaces it forwards")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},
		{id: 2, parent: 1, start: 10, end: 40},
		{id: 3, parent: 1, start: 30, end: 50}, // overlaps 2
		{id: 4, parent: 2, start: 20, end: 25},
		{id: 5, parent: 1, start: 90, end: 120}, // sticks out of 1
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 100 - 40 - 10, 2: 25, 3: 20, 4: 5, 5: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}
