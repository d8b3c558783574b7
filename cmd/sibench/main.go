// Command sibench runs the reproduction's scenarios: the paper suite of
// internal/bench (the Table 1 validation tables, the Example 1.1 scaling
// series and one experiment per constructive theorem; DESIGN.md §9 is
// the index) and the serving-layer protocols below, several of which are
// CI gates. Every scenario prints through bench.Table; a gate fails by
// returning an error, and sibench then exits 1 after running the rest.
//
// Usage:
//
//	sibench [-quick] [-markdown] [-shards n] [id ...]
//
// With no ids it runs the paper suite. `sibench -markdown` emits the body
// of EXPERIMENTS.md; `make smoke` runs the six gates in quick mode.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

var (
	quick    = flag.Bool("quick", false, "run smaller instances")
	markdown = flag.Bool("markdown", false, "emit markdown tables")
	shards   = flag.Int("shards", 0, "run the protocols over this many hash shards (0 = single-node)")
)

// protocols are the serving-layer scenarios, run by id. Each row's
// comment says what it measures and, for a gate, which regression makes
// its Run return an error.
var protocols = []bench.Experiment{
	// reorder: reads/op and µs/op of Q1–Q5 under the analysis-emitted
	// conjunct order, the cost-based order, and the cost-based order
	// refined by live cardinality statistics. Gate: no cost-based plan
	// reads more than its analysis order in total, and at least one
	// query reads strictly less (Q5's ¬person probe is hoisted ahead of
	// the ×N visit expansion).
	{ID: "reorder", Run: reorder},
	// live: watched Q2 subscriptions maintained through Engine.Commit
	// over a mixed insert/delete stream, against re-executing every
	// watcher after each commit. Gate: maintenance reads are strictly
	// fewer than re-execution reads, every delta stays within its bound,
	// and every live snapshot equals a fresh execution.
	{ID: "live", Run: live},
	// flat: the mixed commit stream with live watchers at |D| ≈ 30k and
	// ≈ 150k. Gate: the large instance's commit p50 is within 2× the
	// small one's, unless it is ≤ 500µs — the regression gate for O(1)
	// tuple deletion and the allocation-free key paths.
	{ID: "flat", Run: flat},
	// serve: the HTTP tier under concurrent streaming clients over four
	// tenants (one on a tight read budget), a committer and an SSE
	// watcher. Gate: no served query exceeds its admitted bound, every
	// rejection is a typed admission error, the strict-tenant probe is
	// rejected for its bound, and no goroutine survives drain.
	{ID: "serve", Run: serve},
	// metricsz: drive a live tier, scrape GET /metricsz and strict-parse
	// the exposition. Gate: no malformed line, every exporter family
	// present with its TYPE, and counters that account for the traffic.
	{ID: "metricsz", Run: metricsz},
	// views: Q7 through the VNYC view vs its base plan, and Q6 rescued
	// through VFol (Thm 6.1), before and after a commit stream the views
	// are maintained through. Gate: the optimizer never picks a strictly
	// worse view plan, no rescued execution exceeds its bound, and
	// view-served answers equal the base plan (Q7) or the naive oracle
	// (Q6).
	{ID: "views", Run: viewsBench},
	// shardscale: prepared-Q1 throughput of 8 clients, read-only and
	// with 2 writers, single-node vs 1/2/4/8 hash shards. Not a gate:
	// throughput depends on the machine.
	{ID: "shardscale", Run: shardScale},
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sibench [-quick] [-markdown] [-shards n] [id ...]\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nids (none: the paper suite): %s\n", strings.Join(ids(), " "))
	}
	flag.Parse()

	run := bench.All()
	if flag.NArg() > 0 {
		byID := make(map[string]bench.Experiment)
		for _, e := range scenarios() {
			byID[e.ID] = e
		}
		run = nil
		for _, id := range flag.Args() {
			e, ok := byID[id]
			if !ok {
				fmt.Fprintf(os.Stderr, "sibench: unknown id %q; ids: %s\n", id, strings.Join(ids(), " "))
				os.Exit(2)
			}
			run = append(run, e)
		}
	}

	start := time.Now()
	failed := 0
	for _, e := range run {
		tables, err := e.Run(*quick)
		for _, t := range tables {
			if *markdown {
				fmt.Println(t.Markdown())
			} else {
				fmt.Println(t.String())
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sibench: %s: %v\n", e.ID, err)
			failed++
		}
	}
	fmt.Fprintf(os.Stderr, "sibench: %d scenarios in %s\n", len(run), time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "sibench: %d of %d failed\n", failed, len(run))
		os.Exit(1)
	}
}

// scenarios returns every runnable scenario: the paper suite, then the
// protocols.
func scenarios() []bench.Experiment { return append(bench.All(), protocols...) }

// ids lists every scenario id in registry order.
func ids() []string {
	var out []string
	for _, e := range scenarios() {
		out = append(out, e.ID)
	}
	return out
}

// social is an opened instance of the social workload.
type social struct {
	st      store.Backend
	cfg     workload.Config
	backend string // "single-node" or "n-shard"

	// gen is the generated instance. Open leaves its contents as
	// generated, so commit streams derived from it before the first
	// commit match the backend's initial state.
	gen *relation.Database
}

// openSocial generates the default social workload with the given number
// of persons (seed 7) and opens it single-node, or over that many hash
// shards when shards > 0.
func openSocial(persons, shards int) (*social, error) {
	cfg := workload.DefaultConfig()
	cfg.Persons = persons
	cfg.Seed = 7
	db, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	s := &social{cfg: cfg, backend: backendName(shards), gen: db}
	if shards > 0 {
		s.st, err = shard.Open(db, workload.Access(cfg), shards)
	} else {
		s.st, err = store.Open(db, workload.Access(cfg))
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// backendName labels the backend openSocial opens for shards.
func backendName(shards int) string {
	if shards > 0 {
		return fmt.Sprintf("%d-shard", shards)
	}
	return "single-node"
}

// commitStream returns n mixed insert/delete commits that keep the hot
// persons' Q2 answers moving (workload.MixedCommits, seed 99). Call it
// before the first commit.
func (s *social) commitStream(n int, hot []int64) []*relation.Update {
	return workload.MixedCommits(s.gen, s.cfg, n, hot, 99)
}

// hotPersons returns the n person ids the watchers and view probes
// use: every seventh id, wrapping at the instance size.
func (s *social) hotPersons(n int) []int64 {
	hot := make([]int64, n)
	for i := range hot {
		hot[i] = int64((i * 7) % s.cfg.Persons)
	}
	return hot
}

// parseServing parses a serving query in either syntax.
func parseServing(src string) (*query.Query, error) {
	if cq, err := parser.ParseCQ(src); err == nil {
		return cq.Query()
	}
	return parser.ParseQuery(src)
}

// bindP binds the controlled person id p.
func bindP(p int64) query.Bindings { return query.Bindings{"p": relation.Int(p)} }
