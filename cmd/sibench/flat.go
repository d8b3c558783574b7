package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/workload"
)

// flat is the commit-flatness scenario: the write-path analogue of the
// "reads independent of |D|" guarantee the paper gives queries. It replays
// the same-shape mixed commit stream (randomized inserts/deletes through
// Engine.Commit, live Q2 watchers attached) at a small and a large
// instance — |D| ≈ 30k and |D| ≈ 150k on the default workload — and
// compares the median commit wall latency. With O(1) swap-remove deletion
// the cost of a commit depends on |ΔD| and the maintenance bounds, not on
// |D|. Maintenance reads per commit are printed at both scales as a
// cross-check that flatness was not bought by reading more.
//
// Medians are computed exactly from the recorded latency slice — the
// exporter histogram's bucket resolution (~19%) is too coarse to gate a
// ratio on. p99 is reported for context but not gated: tail latencies on a
// shared box are scheduler noise, the median is the signal.
func flat(quick bool) ([]*bench.Table, error) {
	commits, watchers := 800, 16
	if quick {
		commits = 250
	}
	t := bench.NewTable("flat",
		fmt.Sprintf("commit flatness (%s backend): %d mixed commits, %d live Q2 watchers, per instance size",
			backendName(*shards), commits, watchers),
		"|D|", "p50", "p90", "p99", "maint reads/commit")
	var runs []flatResult
	for _, persons := range []int{2000, 10000} {
		r, err := flatRun(persons, commits, watchers)
		if err != nil {
			return nil, fmt.Errorf("%d persons: %w", persons, err)
		}
		runs = append(runs, r)
		t.Row(r.size, r.p50, r.p90, r.p99, r.maintPerCommit)
	}
	small, large := runs[0], runs[1]
	t.Notes = fmt.Sprintf("p50 ratio (|D|=%d vs |D|=%d): %.2fx (gate: ≤ %.2fx, or large p50 ≤ %s).",
		large.size, small.size, float64(large.p50)/float64(small.p50), flatMaxRatio, flatFloor)
	return []*bench.Table{t}, flatVerdict(small.p50, large.p50)
}

// The flat gate's thresholds.
const (
	flatMaxRatio = 2.0
	// flatFloor: a large-instance median at or below it is flat in
	// absolute terms. The ratio is then dominated by fixed per-commit
	// overhead and timer noise, not by any |D|-dependent term.
	flatFloor = 500 * time.Microsecond
)

// flatVerdict is the flat gate: the large instance's commit p50 may be at
// most flatMaxRatio times the small one's, unless it is within flatFloor.
func flatVerdict(smallP50, largeP50 time.Duration) error {
	if largeP50 <= flatFloor {
		return nil
	}
	if ratio := float64(largeP50) / float64(smallP50); ratio > flatMaxRatio {
		return fmt.Errorf("commit p50 grew %.2fx from the small to the large instance (gate %.2fx): write latency is not flat",
			ratio, flatMaxRatio)
	}
	return nil
}

// flatResult is one instance size's measurement.
type flatResult struct {
	size           int
	p50, p90, p99  time.Duration
	maintPerCommit float64
}

// flatRun replays the mixed commit stream against a fresh instance with
// `persons` entities and returns exact latency quantiles over the
// per-commit wall times.
func flatRun(persons, commits, watchers int) (flatResult, error) {
	s, err := openSocial(persons, *shards)
	if err != nil {
		return flatResult{}, err
	}
	hot := s.hotPersons(watchers)
	stream := s.commitStream(commits, hot)
	eng := core.NewEngine(s.st)
	q, err := parseServing(workload.Q2Src)
	if err != nil {
		return flatResult{}, err
	}
	prep, err := eng.Prepare(q, query.NewVarSet("p"))
	if err != nil {
		return flatResult{}, err
	}
	ctx := context.Background()
	for _, p := range hot {
		l, err := prep.Watch(ctx, bindP(p))
		if err != nil {
			return flatResult{}, fmt.Errorf("watch p=%d: %w", p, err)
		}
		defer l.Close()
	}

	lats := make([]time.Duration, 0, len(stream))
	var maintReads int64
	for _, u := range stream {
		start := time.Now()
		res, err := eng.Commit(ctx, u)
		lat := time.Since(start)
		if err != nil {
			return flatResult{}, err
		}
		lats = append(lats, lat)
		maintReads += res.Maintenance.TupleReads
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return flatResult{
		size:           s.st.Size(),
		p50:            exactQuantile(lats, 0.50),
		p90:            exactQuantile(lats, 0.90),
		p99:            exactQuantile(lats, 0.99),
		maintPerCommit: float64(maintReads) / float64(len(stream)),
	}, nil
}

// exactQuantile reads quantile q from an already-sorted latency slice
// (nearest-rank on the sorted data; no interpolation, no bucketing).
func exactQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)-1) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
