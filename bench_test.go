package scaleindep

// Fine-grained benchmarks for the core engine paths and the
// prepared-query serving API. Run:
//
//	go test -bench=. -benchmem
//
// cmd/sibench regenerates the paper-style tables (DESIGN.md §9 indexes
// the experiments).

import (
	"context"
	"math"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/qdsi"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// --- Fine-grained engine benchmarks (X-4.2: Theorem 4.2 hot paths). ---

func socialEngine(b *testing.B, persons int) (*core.Engine, *store.DB) {
	b.Helper()
	cfg := workload.DefaultConfig()
	cfg.Persons = persons
	cfg.Seed = 7
	db, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(db, workload.Access(cfg))
	if err != nil {
		b.Fatal(err)
	}
	return core.NewEngine(st), st
}

// BenchmarkX42_BoundedEval measures one bounded evaluation of Q1 (Theorem
// 4.2's executable side) on a 10k-person graph.
func BenchmarkX42_BoundedEval(b *testing.B) {
	eng, _ := socialEngine(b, 10000)
	q, err := ParseQuery(workload.Q1Src)
	if err != nil {
		b.Fatal(err)
	}
	d, err := eng.Controllable(q, NewVarSet("p"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.AnswerWith(q, Bindings{"p": Int(int64(i % 1000))}, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX42_NaiveEval is the unbounded baseline for the same query.
func BenchmarkX42_NaiveEval(b *testing.B) {
	_, st := socialEngine(b, 10000)
	q, err := ParseQuery(workload.Q1Src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Answers(eval.DBSource{DB: st.Data()}, q, Bindings{"p": Int(int64(i % 1000))}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControllabilityAnalysis measures the analyzer on Q3 with
// embedded entries (the chase path).
func BenchmarkControllabilityAnalysis(b *testing.B) {
	eng, _ := socialEngine(b, 100)
	q, err := ParseQuery(workload.Q3Src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.An.AnalyzeQuery(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalMaintenance measures one maintained visit insertion
// for Q2 on a 10k-person graph.
func BenchmarkIncrementalMaintenance(b *testing.B) {
	eng, st := socialEngine(b, 10000)
	q2, err := ParseCQ(workload.Q2Src)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMaintainer(eng, q2, Bindings{"p": Int(7)})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := relation.NewTuple(Int(int64(i%10000)), Int(1_000_000), Int(2013), Int(int64(1+i%12)), Int(29))
		u := relation.NewUpdate()
		if st.Data().Rel("visit").Contains(t) {
			u.Delete("visit", t)
		} else {
			u.Insert("visit", t)
		}
		if _, _, _, err := m.Apply(ctx, u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQDSISetCover measures the exact QDSI decider on a star graph.
func BenchmarkQDSISetCover(b *testing.B) {
	q, err := ParseCQ("Q(x, y) :- R(x, z), R(z, y)")
	if err != nil {
		b.Fatal(err)
	}
	s := relation.MustSchema(relation.MustRelSchema("R", "a", "b"))
	d := relation.NewDatabase(s)
	for i := 0; i < 10; i++ {
		d.MustInsert("R", relation.Ints(int64(1+i), 0))
		d.MustInsert("R", relation.Ints(0, int64(100+i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qdsi.DecideCQ(q, d, d.Size(), qdsi.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Serving API benchmarks: prepared vs unprepared repeated answering
// of the same workload query. The gap between Unprepared and the other
// two is the per-call controllability analysis the prepared lifecycle
// amortizes away. ---

// BenchmarkServingUnprepared re-runs the analysis on every call (plan
// cache disabled): the pre-redesign Answer behavior.
func BenchmarkServingUnprepared(b *testing.B) {
	eng, _ := socialEngine(b, 10000)
	eng.SetPlanCacheSize(0)
	q, err := ParseQuery(workload.Q1Src)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.AnswerContext(ctx, q, Bindings{"p": Int(int64(i % 1000))}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServingPlanCache uses the one-shot Answer path, which hits the
// engine's LRU plan cache transparently.
func BenchmarkServingPlanCache(b *testing.B) {
	eng, _ := socialEngine(b, 10000)
	q, err := ParseQuery(workload.Q1Src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Answer(q, Bindings{"p": Int(int64(i % 1000))}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServingPrepared executes an explicitly prepared query.
func BenchmarkServingPrepared(b *testing.B) {
	eng, _ := socialEngine(b, 10000)
	q, err := ParseQuery(workload.Q1Src)
	if err != nil {
		b.Fatal(err)
	}
	prep, err := eng.Prepare(q, NewVarSet("p"))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prep.Exec(ctx, Bindings{"p": Int(int64(i % 1000))}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServingPreparedNoTrace is the hot path: prepared execution
// with witness bookkeeping disabled.
func BenchmarkServingPreparedNoTrace(b *testing.B) {
	eng, _ := socialEngine(b, 10000)
	q, err := ParseQuery(workload.Q1Src)
	if err != nil {
		b.Fatal(err)
	}
	prep, err := eng.Prepare(q, NewVarSet("p"))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prep.Exec(ctx, Bindings{"p": Int(int64(i % 1000))}, WithoutTrace()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServingPreparedExec compares the prepared serving hot path
// under the three instrumentation states:
//
//	bare      no telemetry installed (a library embedder's default)
//	traced    engine telemetry on — QueryEvent per execution into a live
//	          metrics observer, as siserve runs in production
//	analyzed  EXPLAIN ANALYZE mode — per-operator counters and wall
//	          clocks (opt-in diagnostics, not on the serving path)
//
// The bare→traced delta is the default-on instrumentation cost, budgeted
// at ≤5% and CI-gated by TestInstrumentationOverheadGate (`make
// overhead-gate`). The traced→analyzed delta is what a diagnostic run
// pays; it has no budget.
func BenchmarkServingPreparedExec(b *testing.B) {
	b.Run("bare", func(b *testing.B) { benchPreparedExec(b, false, false) })
	b.Run("traced", func(b *testing.B) { benchPreparedExec(b, true, false) })
	b.Run("analyzed", func(b *testing.B) { benchPreparedExec(b, true, true) })
}

// benchObserver is a production-shaped telemetry sink: per-query latency
// and reads histograms, as the serving tier's /metricsz observer records.
type benchObserver struct {
	lat, reads *obs.Histogram
}

func (o *benchObserver) ObserveQuery(ev core.QueryEvent) {
	o.lat.ObserveDuration(ev.Wall)
	o.reads.Observe(float64(ev.Cost.TupleReads))
}
func (o *benchObserver) ObserveCommit(core.CommitEvent) {}

func benchPreparedExec(b *testing.B, telemetry, analyze bool) {
	eng, _ := socialEngine(b, 10000)
	if telemetry {
		reg := obs.NewRegistry()
		eng.SetTelemetry(core.TelemetryConfig{Observer: &benchObserver{
			lat:   reg.Histogram("bench_query_latency_seconds", "bench").With(),
			reads: reg.Histogram("bench_query_reads", "bench").With(),
		}})
	}
	q, err := ParseQuery(workload.Q1Src)
	if err != nil {
		b.Fatal(err)
	}
	prep, err := eng.Prepare(q, NewVarSet("p"))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	opts := []ExecOption{WithoutTrace()}
	if analyze {
		opts = append(opts, WithAnalyze())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := prep.Query(ctx, Bindings{"p": Int(int64(i % 1000))}, opts...)
		if err != nil {
			b.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			b.Fatal(err)
		}
		rows.Close()
	}
}

// TestInstrumentationOverheadGate is the CI overhead budget (set
// SI_OVERHEAD_GATE to run; `make overhead-gate`): default-on telemetry —
// the QueryEvent per execution siserve records into its metrics registry
// — must cost at most 5% wall time over the bare prepared hot path. Both
// lanes run back to back in-process, best of three rounds each, so
// scheduler noise fails slow, not spuriously.
func TestInstrumentationOverheadGate(t *testing.T) {
	if os.Getenv("SI_OVERHEAD_GATE") == "" {
		t.Skip("set SI_OVERHEAD_GATE=1 to run the instrumentation overhead gate")
	}
	best := func(telemetry bool) float64 {
		ns := math.MaxFloat64
		for round := 0; round < 3; round++ {
			r := testing.Benchmark(func(b *testing.B) { benchPreparedExec(b, telemetry, false) })
			if v := float64(r.T.Nanoseconds()) / float64(r.N); v < ns {
				ns = v
			}
		}
		return ns
	}
	bare := best(false)
	traced := best(true)
	overhead := traced/bare - 1
	t.Logf("bare %.0f ns/op, traced %.0f ns/op, overhead %+.2f%%", bare, traced, 100*overhead)
	if overhead > 0.05 {
		t.Fatalf("default-on instrumentation overhead %.2f%% exceeds the 5%% budget", 100*overhead)
	}
}

// BenchmarkServingPreparedSharded4 is the prepared hot path over the
// 4-shard backend: Q1's fetches all route (friend by id1, person by id),
// so the delta against BenchmarkServingPreparedNoTrace is the pure
// routing overhead of the sharded backend on single-shard fast paths.
func BenchmarkServingPreparedSharded4(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.Persons = 10000
	cfg.Seed = 7
	db, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewShardedEngine(db, workload.Access(cfg), 4)
	if err != nil {
		b.Fatal(err)
	}
	q, err := ParseQuery(workload.Q1Src)
	if err != nil {
		b.Fatal(err)
	}
	prep, err := eng.Prepare(q, NewVarSet("p"))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prep.Exec(ctx, Bindings{"p": Int(int64(i % 1000))}, WithoutTrace()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Cursor (streaming) serving benchmarks: the same prepared Q1 through
// the Rows API. Drain shows the cursor protocol's overhead against Exec;
// First shows what early termination buys — strictly fewer tuple reads
// per call, since the fetches behind unread answers are never issued. ---

// BenchmarkServingRowsDrain fully drains a cursor per call: same reads
// and answers as BenchmarkServingPreparedNoTrace, through Next/Tuple.
func BenchmarkServingRowsDrain(b *testing.B) {
	eng, _ := socialEngine(b, 10000)
	q, err := ParseQuery(workload.Q1Src)
	if err != nil {
		b.Fatal(err)
	}
	prep, err := eng.Prepare(q, NewVarSet("p"))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := prep.Query(ctx, Bindings{"p": Int(int64(i % 1000))}, WithoutTrace())
		if err != nil {
			b.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			b.Fatal(err)
		}
		rows.Close()
	}
}

// BenchmarkServingFirst stops after the first answer; the read savings
// against the full drain are reported as reads/op.
func BenchmarkServingFirst(b *testing.B) {
	eng, _ := socialEngine(b, 10000)
	q, err := ParseQuery(workload.Q1Src)
	if err != nil {
		b.Fatal(err)
	}
	prep, err := eng.Prepare(q, NewVarSet("p"))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var reads int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := prep.Query(ctx, Bindings{"p": Int(int64(i % 1000))}, WithoutTrace(), WithLimit(1))
		if err != nil {
			b.Fatal(err)
		}
		rows.Next()
		if err := rows.Err(); err != nil {
			b.Fatal(err)
		}
		reads += rows.Cost().TupleReads
		rows.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
}

// BenchmarkServingExecReads is BenchmarkServingPreparedNoTrace with the
// full drain's reads/op reported, for comparison against
// BenchmarkServingFirst: the delta is the early-exit saving.
func BenchmarkServingExecReads(b *testing.B) {
	eng, _ := socialEngine(b, 10000)
	q, err := ParseQuery(workload.Q1Src)
	if err != nil {
		b.Fatal(err)
	}
	prep, err := eng.Prepare(q, NewVarSet("p"))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var reads int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := prep.Exec(ctx, Bindings{"p": Int(int64(i % 1000))}, WithoutTrace())
		if err != nil {
			b.Fatal(err)
		}
		reads += ans.Cost.TupleReads
	}
	b.StopTimer()
	b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
}

// TestFacadeStreaming drives the cursor API end to end through the public
// facade: Rows.All() answers match Exec, and early exit reads less.
func TestFacadeStreaming(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Persons = 300
	db, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(db, workload.Access(cfg))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(workload.Q1Src)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(q, NewVarSet("p"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for p := int64(0); p < 60; p++ {
		fixed := Bindings{"p": Int(p)}
		ans, err := prep.Exec(ctx, fixed)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := prep.Query(ctx, fixed)
		if err != nil {
			t.Fatal(err)
		}
		got := relation.NewTupleSet(0)
		for tu, err := range rows.All() {
			if err != nil {
				t.Fatal(err)
			}
			got.Add(tu)
		}
		if !got.Equal(ans.Tuples) {
			t.Fatalf("p=%d: streamed %v, exec %v", p, got.Tuples(), ans.Tuples.Tuples())
		}
		if rows.Cost().TupleReads != ans.Cost.TupleReads {
			t.Fatalf("p=%d: rows read %d, exec %d", p, rows.Cost().TupleReads, ans.Cost.TupleReads)
		}
		if ans.Tuples.Len() < 2 {
			continue
		}
		first, err := eng.First(ctx, q, fixed)
		if err != nil {
			t.Fatal(err)
		}
		if !ans.Tuples.Contains(first) {
			t.Fatalf("p=%d: First %v not an answer", p, first)
		}
		return
	}
	t.Fatal("no multi-answer binding found")
}

// Facade smoke test: the public API answers Q1 correctly end to end.
func TestFacadeEndToEnd(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Persons = 300
	db, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(db, workload.Access(cfg))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(workload.Q1Src)
	if err != nil {
		t.Fatal(err)
	}
	fixed := Bindings{"p": Int(11)}
	ans, err := eng.Answer(q, fixed)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NaiveAnswers(db, q, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Tuples.Equal(naive) {
		t.Fatalf("facade answers differ: %v vs %v", ans.Tuples.Tuples(), naive.Tuples())
	}
	if _, err := Controllable(eng, q, NewVarSet("p")); err != nil {
		t.Fatal(err)
	}
	_ = query.Bindings(nil) // keep import grouping honest
}

// BenchmarkCommitDelete measures the write path's |D|-sensitivity
// directly: each op is one commit deleting a 24-tuple friend batch plus
// the commit restoring it, on the mixed-workload instance at |D| ≈ 30k
// and |D| ≈ 150k. With O(1) swap-remove deletion ns/op and allocs/op
// must stay near-constant across the two sizes; the pre-swap-remove
// engine paid an O(|R|) copy and re-key of the relation per deleted
// tuple, which made this benchmark 5x at the larger instance.
func BenchmarkCommitDelete(b *testing.B) {
	for _, sc := range []struct {
		name    string
		persons int
	}{{"D30k", 2000}, {"D150k", 10000}} {
		b.Run(sc.name, func(b *testing.B) {
			cfg := workload.DefaultConfig()
			cfg.Persons = sc.persons
			cfg.Seed = 7
			data, err := workload.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			batch := append([]relation.Tuple(nil), data.Rel("friend").Tuples()[:24]...)
			eng, err := NewEngine(data, workload.Access(cfg))
			if err != nil {
				b.Fatal(err)
			}
			del := NewUpdate()
			for _, tu := range batch {
				del.Delete("friend", tu)
			}
			ins := del.Inverse()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Commit(ctx, del); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Commit(ctx, ins); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
