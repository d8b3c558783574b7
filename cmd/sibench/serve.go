package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/workload"
)

// The serve scenario's load shape.
const (
	serveClients = 8
	serveTenants = 4
)

// serve is the serving-tier load harness: it mounts the HTTP tier on a
// real socket, hammers it with concurrent streaming clients spread over
// tenants — one of which gets a deliberately tight windowed read budget
// so admission control is exercised under load — races a committer and a
// live watcher against the readers, and reports q/s, latency percentiles
// and admission reject counts. It fails if any of the tier's contracts
// broke:
//
//   - a served query's measured reads exceeded the bound it was admitted
//     under (scale independence violated over the wire);
//   - a request failed with anything other than a typed admission
//     rejection (a misclassified or untyped error);
//   - a deterministic SLA probe was NOT rejected, or was rejected with
//     the wrong type;
//   - goroutines leaked through drain + shutdown.
func serve(quick bool) ([]*bench.Table, error) {
	persons, dur := 1000, 3*time.Second
	if quick {
		persons, dur = 240, time.Second
	}
	s, err := openSocial(persons, *shards)
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(s.st)

	// Size tenant t0's budget off Q1's static bound M: room for ~4 full
	// entitlements per 25ms window, so a saturating client sees real
	// budget rejections while the other tenants run unlimited.
	q, err := parseServing(workload.Q1Src)
	if err != nil {
		return nil, err
	}
	prep0, err := eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		return nil, err
	}
	boundM := prep0.Plan().Bound.Reads
	policies := map[string]server.TenantPolicy{
		"t0":     {ReadBudget: 4 * boundM, Window: 25 * time.Millisecond},
		"strict": {MaxBound: 1},
	}
	reg := obs.NewRegistry()
	srv := server.NewServer(server.Config{Engine: eng, Policies: policies, Metrics: reg})

	baseline := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	ctx := context.Background()

	// Per-client results, merged after the run. Latencies go straight into
	// a shared histogram (obs.Histogram is concurrency-safe), which also
	// provides the p50/p99 at reporting time.
	type result struct {
		ok            int64
		rejBound      int64
		rejBudget     int64
		rejConc       int64
		boundViolated int64
		badErrs       []error
	}
	results := make([]result, serveClients)
	lath := obs.NewHistogram()
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			tenant := fmt.Sprintf("t%d", c%serveTenants)
			cl := client.New(base, client.WithTenant(tenant))
			prep, err := cl.Prepare(ctx, workload.Q1Src, "p")
			if err != nil {
				res.badErrs = append(res.badErrs, fmt.Errorf("client %d prepare: %w", c, err))
				return
			}
			for i := 0; time.Now().Before(deadline); i++ {
				fixed := bindP(int64((c*131 + i*7) % s.cfg.Persons))
				start := time.Now()
				_, stats, err := prep.Exec(ctx, fixed)
				lat := time.Since(start)
				if err != nil {
					var adm *server.AdmissionError
					if errors.As(err, &adm) {
						switch adm.Reason {
						case "bound":
							res.rejBound++
						case "budget":
							res.rejBudget++
						case "concurrency":
							res.rejConc++
						}
						continue
					}
					res.badErrs = append(res.badErrs, fmt.Errorf("client %d (%s) query %d: %w", c, tenant, i, err))
					return
				}
				lath.ObserveDuration(lat)
				res.ok++
				if stats.Reads > stats.Bound {
					res.boundViolated++
				}
			}
		}(c)
	}

	// One committer and one live watcher race the readers: the serving
	// tier must hold its contracts with writes and SSE in flight.
	var commitErr, watchErr error
	var commits int64
	wg.Add(2)
	go func() {
		defer wg.Done()
		cl := client.New(base)
		for i := int64(0); time.Now().Before(deadline); i++ {
			u := serveUpdate(i, int64(s.cfg.Persons))
			if _, err := cl.Commit(ctx, u); err != nil {
				commitErr = fmt.Errorf("commit %d: %w", i, err)
				return
			}
			commits++
			time.Sleep(2 * time.Millisecond)
		}
	}()
	watchDeltas := 0
	watchFolded := 0
	go func() {
		defer wg.Done()
		cl := client.New(base)
		prep, err := cl.Prepare(ctx, workload.Q1Src, "p")
		if err != nil {
			watchErr = err
			return
		}
		w, err := prep.Watch(ctx, bindP(1), false)
		if err != nil {
			watchErr = err
			return
		}
		defer w.Close()
		wctx, cancel := context.WithDeadline(ctx, deadline)
		defer cancel()
		done := make(chan struct{})
		go func() { <-wctx.Done(); w.Close(); close(done) }()
		for {
			d, err := w.Next()
			if err != nil {
				break // EOF/closed — expected at deadline or drain
			}
			watchDeltas++
			watchFolded += d.Folded
			if d.Reads > d.Bound {
				watchErr = fmt.Errorf("watch delta seq %d charged %d reads over bound %d", d.Seq, d.Reads, d.Bound)
			}
		}
		<-done
	}()
	wg.Wait()

	// Deterministic SLA probe: the strict tenant (MaxBound 1) MUST be
	// rejected, and with the typed admission error — anything else is a
	// misclassified rejection.
	strict := client.New(base, client.WithTenant("strict"))
	_, strictErr := strict.Prepare(ctx, workload.Q1Src, "p")
	var strictAdm *server.AdmissionError
	if strictErr == nil {
		return nil, fmt.Errorf("strict tenant (MaxBound 1) was admitted for a bound-%d plan", boundM)
	}
	if !errors.As(strictErr, &strictAdm) || strictAdm.Reason != "bound" {
		return nil, fmt.Errorf("strict tenant rejected with the wrong type: %w", strictErr)
	}

	status, err := client.New(base).Status(ctx)
	if err != nil {
		return nil, err
	}

	// Drain and shut down before judging goroutines.
	drainCtx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		return nil, err
	}
	if err := hs.Shutdown(drainCtx); err != nil {
		return nil, err
	}
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}

	// Merge and report.
	var ok, rejBound, rejBudget, rejConc, boundViolated int64
	var badErrs []error
	for i := range results {
		r := &results[i]
		ok += r.ok
		rejBound += r.rejBound
		rejBudget += r.rejBudget
		rejConc += r.rejConc
		boundViolated += r.boundViolated
		badErrs = append(badErrs, r.badErrs...)
	}
	t := bench.NewTable("serve",
		fmt.Sprintf("HTTP serving tier on |D| = %d (%s backend): Q1 bound M = %d reads, %d clients over %d tenants for %s",
			s.st.Size(), s.backend, boundM, serveClients, serveTenants, dur),
		"tenant", "admitted", "rejected (bound)", "rejected (budget)", "rejected (concurrency)", "measured reads")
	tenants := make([]string, 0, len(status.Tenants))
	for name := range status.Tenants {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	for _, name := range tenants {
		ts := status.Tenants[name]
		t.Row(name, ts.Admitted, ts.RejectedBound, ts.RejectedBudget, ts.RejectedConcurrency, ts.MeasuredReads)
	}
	t.Notes = fmt.Sprintf("%d queries ok (%.0f q/s), p50 %s, p99 %s; client-side rejections: bound %d (incl. the strict probe), budget %d, concurrency %d; %d commits, %d watch deltas (%d folded commits); plan cache %d hits / %d misses.",
		ok, float64(ok)/dur.Seconds(),
		lath.QuantileDuration(0.50).Round(time.Microsecond), lath.QuantileDuration(0.99).Round(time.Microsecond),
		rejBound+1, rejBudget, rejConc, commits, watchDeltas, watchFolded,
		status.Engine.PlanCache.Hits, status.Engine.PlanCache.Misses)
	tables := []*bench.Table{t}

	// Contract verdicts.
	if boundViolated > 0 {
		return tables, fmt.Errorf("%d served queries exceeded their admitted bound", boundViolated)
	}
	if len(badErrs) > 0 {
		return tables, fmt.Errorf("%d requests failed outside the admission taxonomy; first: %w", len(badErrs), badErrs[0])
	}
	if commitErr != nil {
		return tables, commitErr
	}
	if watchErr != nil {
		return tables, watchErr
	}
	if ok == 0 {
		return tables, errors.New("no queries completed")
	}
	// Goroutine leak check: after drain + shutdown everything the tier
	// spawned must be gone (allow slack for runtime/netpoll churn).
	leakDeadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		} else if time.Now().After(leakDeadline) {
			return tables, fmt.Errorf("goroutine leak: %d running after drain, baseline %d", n, baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return tables, nil
}

// serveUpdate builds the i-th committer update: a new person in NYC and
// a friend edge from a rotating existing person, all ids disjoint from
// the generated workload.
func serveUpdate(i, persons int64) *relation.Update {
	u := relation.NewUpdate()
	id := 900_000 + i
	u.Insert("person", relation.Tuple{relation.Int(id), relation.Str(fmt.Sprintf("load-%d", i)), relation.Str("NYC")})
	u.Insert("friend", relation.Tuple{relation.Int(i % persons), relation.Int(id)})
	return u
}
