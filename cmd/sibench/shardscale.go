package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// The shardscale scenario's load shape.
const (
	scaleClients = 8
	scaleWriters = 2
)

// shardScale holds |D|, the client count and the total work fixed and
// varies the backend: single-node, then 1/2/4/8 hash shards. Every
// configuration performs the same fixed workload — each of scaleClients
// goroutines executes a fixed count of prepared Q1 calls — first
// read-only, then mixed with scaleWriters goroutines concurrently
// applying (and undoing) a fixed count of 48-tuple single-entity friend
// batches. Wall-clock time for the whole batch gives queries/second; each
// measurement is the best of `rounds` runs (the usual guard against
// scheduler noise). The mixed column is where per-shard write locks pay
// off: on the single node every commit excludes all readers; on n shards
// it excludes only the readers of one shard. -shards does not apply.
func shardScale(quick bool) ([]*bench.Table, error) {
	persons, perClient, perWriter, rounds := 20000, 1500, 400, 4
	if quick {
		persons, perClient, perWriter, rounds = 4000, 400, 100, 2
	}
	q, err := parser.ParseQuery(workload.Q1Src)
	if err != nil {
		return nil, err
	}
	t := bench.NewTable("shardscale", "", "backend", "read-only q/s", "mixed q/s (writers)")
	for _, n := range []int{0, 1, 2, 4, 8} {
		s, err := openSocial(persons, n)
		if err != nil {
			return nil, err
		}
		t.Title = fmt.Sprintf("shard scaling: Q1 serving at |D| = %d, %d clients x %d queries, %d writers x %d update batches, GOMAXPROCS=%d",
			s.st.Size(), scaleClients, perClient, scaleWriters, 2*perWriter, runtime.GOMAXPROCS(0))
		prep, err := core.NewEngine(s.st).Prepare(q, query.NewVarSet("p"))
		if err != nil {
			return nil, err
		}
		// firstErr keeps the first failure from any goroutine. A mutex (not
		// atomic.Value) because failing goroutines may carry different
		// concrete error types.
		var errMu sync.Mutex
		var firstErr error
		fail := func(err error) {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
		}
		load := func(withWriters bool) time.Duration {
			var wg sync.WaitGroup
			start := time.Now()
			for c := 0; c < scaleClients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					ctx := context.Background()
					for i := 0; i < perClient; i++ {
						if _, err := prep.Exec(ctx, bindP(int64((c*7919+i)%persons)), core.WithoutTrace()); err != nil {
							fail(err)
							return
						}
					}
				}(c)
			}
			if withWriters {
				for w := 0; w < scaleWriters; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						// Each writer commits through its own engine over the
						// shared backend — independent serving processes, so
						// commits do not serialize behind one engine's commit
						// lock and the storage layer's per-shard write locks
						// stay the contended resource being measured.
						weng := core.NewEngine(s.st)
						ctx := context.Background()
						base := int64(1_000_000 + 10_000*w)
						for i := 0; i < perWriter; i++ {
							// One entity's friend list per batch: routes to one
							// shard, the write shape per-shard locks help most;
							// 48 tuples holds the write lock long enough that a
							// global lock visibly stalls readers while staying
							// within the schema's MaxFriends=50 bound.
							u := relation.NewUpdate()
							id := base + int64(i%1000)
							for k := int64(0); k < 48; k++ {
								u.Insert("friend", relation.Tuple{relation.Int(id), relation.Int(k)})
							}
							if _, err := weng.Commit(ctx, u); err != nil {
								fail(err)
								return
							}
							if _, err := weng.Commit(ctx, u.Inverse()); err != nil {
								fail(err)
								return
							}
						}
					}(w)
				}
			}
			wg.Wait()
			return time.Since(start)
		}
		// Fail fast between rounds: a failing backend should not burn the
		// remaining rounds and the whole mixed phase before reporting.
		best := func(withWriters bool) (float64, error) {
			bestT := time.Duration(0)
			for r := 0; r < rounds; r++ {
				d := load(withWriters)
				errMu.Lock()
				err := firstErr
				errMu.Unlock()
				if err != nil {
					return 0, err
				}
				if bestT == 0 || d < bestT {
					bestT = d
				}
			}
			return float64(scaleClients*perClient) / bestT.Seconds(), nil
		}
		qps, err := best(false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.backend, err)
		}
		mixQPS, err := best(true)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.backend, err)
		}
		t.Row(s.backend, fmt.Sprintf("%.0f", qps), fmt.Sprintf("%.0f", mixQPS))
	}
	return []*bench.Table{t}, nil
}
