package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/workload"
)

// metricsFamilies is the exporter's contract surface: every family the
// serving tier registers (the table in internal/server/metrics.go), with
// its TYPE. The smoke fails if the live scrape is missing any of them or
// disagrees on a type — so renaming a metric is a deliberate act here,
// not a silent dashboard break.
var metricsFamilies = map[string]obs.Kind{
	"si_query_latency_seconds":    obs.KindHistogram,
	"si_query_reads":              obs.KindHistogram,
	"si_queries_total":            obs.KindCounter,
	"si_admission_total":          obs.KindCounter,
	"si_admission_refund_reads":   obs.KindHistogram,
	"si_plan_cache_ops_total":     obs.KindGauge,
	"si_commits_total":            obs.KindCounter,
	"si_commit_phase_seconds":     obs.KindHistogram,
	"si_commit_maintenance_reads": obs.KindHistogram,
	"si_watch_delta_lag":          obs.KindHistogram,
	"si_watch_folded_total":       obs.KindCounter,
	"si_engine_size":              obs.KindGauge,
	"si_engine_commit_seq":        obs.KindGauge,
	"si_engine_watchers":          obs.KindGauge,
	"si_shard_lsn_spread":         obs.KindGauge,
}

// metricsz is the exporter gate: it mounts the serving tier with a live
// registry on a real socket, drives every code path that records metrics
// — admitted queries, a typed bound rejection, commits, a live watch
// delta — then scrapes GET /metricsz over HTTP and holds the exposition to
// account:
//
//   - the body must survive the strict exposition parser (internal/obs
//     ParseText), which rejects orphan samples, malformed labels, and
//     non-monotone histogram buckets;
//   - every family in metricsFamilies must be present with its TYPE;
//   - the counters must reflect the traffic just driven (queries ok,
//     admission by outcome, commits, watch deltas).
//
// Its size does not depend on -quick.
func metricsz(bool) ([]*bench.Table, error) {
	s, err := openSocial(240, *shards)
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(s.st)
	srv := server.NewServer(server.Config{
		Engine:   eng,
		Policies: map[string]server.TenantPolicy{"strict": {MaxBound: 1}},
		Metrics:  obs.NewRegistry(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	ctx := context.Background()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(sctx)
		hs.Shutdown(sctx)
	}()

	// Traffic: queries that succeed, a rejection that is typed, commits
	// that run the pipeline, and a watch that delivers a delta.
	cl := client.New(base)
	prep, err := cl.Prepare(ctx, workload.Q1Src, "p")
	if err != nil {
		return nil, err
	}
	const queries = 5
	for i := 0; i < queries; i++ {
		if _, _, err := prep.Exec(ctx, bindP(int64(i))); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	strict := client.New(base, client.WithTenant("strict"))
	var adm *server.AdmissionError
	if _, err := strict.Prepare(ctx, workload.Q1Src, "p"); !errors.As(err, &adm) || adm.Reason != "bound" {
		return nil, fmt.Errorf("strict tenant not rejected with a typed bound error: %w", err)
	}
	w, err := prep.Watch(ctx, bindP(1), false)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	const commits = 3
	for i := int64(0); i < commits; i++ {
		if _, err := cl.Commit(ctx, serveUpdate(i, int64(s.cfg.Persons))); err != nil {
			return nil, fmt.Errorf("commit %d: %w", i, err)
		}
	}
	if _, err := w.Next(); err != nil {
		return nil, fmt.Errorf("watch delta: %w", err)
	}

	// Scrape and verify.
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metricsz: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		return nil, fmt.Errorf("GET /metricsz content-type %q, want text exposition 0.0.4", ct)
	}
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("exposition failed strict parse: %w", err)
	}
	names := make([]string, 0, len(metricsFamilies))
	for name := range metricsFamilies {
		names = append(names, name)
	}
	sort.Strings(names)
	t := bench.NewTable("metricsz", fmt.Sprintf("/metricsz exporter: %d families parsed strictly", len(fams)),
		"family", "type", "samples")
	for _, name := range names {
		f, ok := fams[name]
		if !ok {
			return nil, fmt.Errorf("family %s missing from /metricsz", name)
		}
		if kind := metricsFamilies[name]; f.Type != kind {
			return nil, fmt.Errorf("family %s has TYPE %s, want %s", name, f.Type, kind)
		}
		t.Row(name, f.Type, len(f.Samples))
	}
	t.Notes = fmt.Sprintf("%d queries, %d commits, 1 typed rejection and 1 watch delta driven; the counters account for all of them.", queries, commits)
	tables := []*bench.Table{t}

	// The counters must account for the traffic just driven.
	sum := func(name string, match map[string]string) float64 {
		var total float64
		for _, s := range fams[name].Samples {
			if strings.HasSuffix(s.Name, "_bucket") || strings.HasSuffix(s.Name, "_sum") {
				continue
			}
			ok := true
			for k, v := range match {
				if s.Labels[k] != v {
					ok = false
				}
			}
			if ok {
				total += s.Value
			}
		}
		return total
	}
	if got := sum("si_queries_total", map[string]string{"outcome": "ok"}); got < queries {
		return tables, fmt.Errorf("si_queries_total{outcome=ok} = %v, want >= %d", got, queries)
	}
	if got := sum("si_admission_total", map[string]string{"outcome": "rejected_bound"}); got < 1 {
		return tables, fmt.Errorf("si_admission_total{outcome=rejected_bound} = %v, want >= 1", got)
	}
	if got := sum("si_commits_total", nil); got != commits {
		return tables, fmt.Errorf("si_commits_total = %v, want %d", got, commits)
	}
	// Histogram conformance on a family we know has data: count == queries.
	if got := sum("si_query_latency_seconds", nil); got < queries {
		return tables, fmt.Errorf("si_query_latency_seconds count = %v, want >= %d", got, queries)
	}
	if got := sum("si_engine_commit_seq", nil); got != commits {
		return tables, fmt.Errorf("si_engine_commit_seq = %v, want %d", got, commits)
	}
	return tables, nil
}
