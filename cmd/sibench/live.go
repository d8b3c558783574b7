package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/workload"
)

// liveWatchers is the number of watched Q2 subscriptions in live.
const liveWatchers = 32

// live measures what the commit-and-notify write path buys over serving
// by re-execution: liveWatchers Q2 subscriptions (A-rated NYC
// restaurants visited by p's NYC friends) are watched while a randomized
// mixed insert/delete commit stream runs through Engine.Commit. For every
// commit it accumulates (a) the maintenance reads charged to the
// watchers, each bounded by its N-derived per-delta bound, and (b) the
// reads that fresh prepared re-executions of the same queries cost on
// the post-commit state — what keeping the readers fresh would pay
// without incremental maintenance. commits/s times the pipeline alone.
func live(quick bool) ([]*bench.Table, error) {
	persons, commits := 10000, 1200 // |D| ≈ 151k, the reordering experiment's size
	if quick {
		persons, commits = 2000, 400
	}
	s, err := openSocial(persons, *shards)
	if err != nil {
		return nil, err
	}
	hot := s.hotPersons(liveWatchers)
	stream := s.commitStream(commits, hot)
	eng := core.NewEngine(s.st)
	q, err := parseServing(workload.Q2Src)
	if err != nil {
		return nil, err
	}
	prep, err := eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	type sub struct {
		fixed query.Bindings
		l     *core.Live
	}
	subs := make([]sub, 0, len(hot))
	for _, p := range hot {
		fixed := bindP(p)
		l, err := prep.Watch(ctx, fixed)
		if err != nil {
			return nil, fmt.Errorf("watch p=%d: %w", p, err)
		}
		defer l.Close()
		subs = append(subs, sub{fixed: fixed, l: l})
	}

	var maintReads, reexecReads int64
	var commitTime time.Duration
	lath := obs.NewHistogram()
	for _, u := range stream {
		start := time.Now()
		res, err := eng.Commit(ctx, u)
		lat := time.Since(start)
		commitTime += lat
		lath.ObserveDuration(lat)
		if err != nil {
			return nil, err
		}
		maintReads += res.Maintenance.TupleReads
		// The baseline: every watcher re-executes against the new state.
		for _, sb := range subs {
			ans, err := prep.Exec(ctx, sb.fixed, core.WithoutTrace())
			if err != nil {
				return nil, err
			}
			reexecReads += ans.Cost.TupleReads
		}
	}

	// Exactness: every snapshot must equal a fresh execution, and every
	// delivered delta must have stayed within its bound.
	var deltas int
	var maxReads, maxBound int64
	for _, sb := range subs {
		ans, err := prep.Exec(ctx, sb.fixed)
		if err != nil {
			return nil, err
		}
		if !sb.l.Snapshot().Equal(ans.Tuples) {
			return nil, fmt.Errorf("live snapshot for %v diverged from fresh execution", sb.fixed)
		}
		sb.l.Close()
		for d, err := range sb.l.Deltas() {
			if err != nil {
				return nil, err
			}
			if d.Cost.TupleReads > d.Bound {
				return nil, fmt.Errorf("delta seq %d charged %d reads over its bound %d", d.Seq, d.Cost.TupleReads, d.Bound)
			}
			maxReads = max(maxReads, d.Cost.TupleReads)
			maxBound = max(maxBound, d.Bound)
			deltas++
		}
	}

	n := float64(len(stream))
	t := bench.NewTable("live",
		fmt.Sprintf("live Q2 maintenance on |D| = %d (%s backend): %d commits, %d watched subscriptions",
			s.st.Size(), s.backend, len(stream), len(subs)),
		"per commit", "value")
	t.Row("maintenance reads (all watchers)", float64(maintReads)/n)
	t.Row("full re-execution reads (baseline)", float64(reexecReads)/n)
	t.Row("commit latency (incl. maintenance)", commitTime/time.Duration(len(stream)))
	t.Row("commit latency p50", lath.QuantileDuration(0.50))
	t.Row("commit latency p99", lath.QuantileDuration(0.99))
	t.Row("commits/s", fmt.Sprintf("%.0f", n/commitTime.Seconds()))
	t.Notes = fmt.Sprintf("%d deltas delivered; max per-delta reads %d, max bound %d; every snapshot ≡ fresh Exec. Maintenance pays %.1f%% of the re-execution baseline.",
		deltas, maxReads, maxBound, 100*float64(maintReads)/float64(reexecReads))
	return []*bench.Table{t}, liveVerdict(maintReads, reexecReads)
}

// liveVerdict is the live gate: incremental maintenance must read
// strictly less than re-executing every watcher after each commit.
func liveVerdict(maintReads, reexecReads int64) error {
	if maintReads >= reexecReads {
		return fmt.Errorf("maintenance (%d reads) is not strictly cheaper than re-execution (%d reads)", maintReads, reexecReads)
	}
	return nil
}
