package main

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/relation"
	"repro/internal/store"
)

// tracedStore is a store.Backend decorator that records a span for every
// charged access and every write-path call, parented to the span the
// caller's context names (ExecStats.Ctx carries the benchmark's cursor).
// It changes nothing the engine can observe: wrap returns a value that
// implements exactly the optional store interfaces of the backend it
// wraps, because the engine changes behaviour on each of them.
type tracedStore struct {
	store.Backend
	tr *tracer
}

func readsOf(es *store.ExecStats) int64 {
	if es == nil {
		return 0
	}
	return es.Counters.TupleReads
}

// done records the span of one store call that started at start, when es
// had charged before reads.
func (s *tracedStore) done(es *store.ExecStats, k kind, start, before int64) {
	sp := span{id: s.tr.id(), kind: k, start: start, end: s.tr.now()}
	if es != nil {
		sp.reads = es.Counters.TupleReads - before
		if c := cursorOf(es.Ctx); c != nil {
			sp.parent, sp.req, sp.role = c.cur.Load(), c.req, c.role
		}
	}
	s.tr.record(sp)
}

// write records the span of one write-path call.
func (s *tracedStore) write(k kind, start int64) {
	s.tr.record(span{id: s.tr.id(), kind: k, start: start, end: s.tr.now()})
}

func (s *tracedStore) FetchInto(es *store.ExecStats, e access.Entry, vals []relation.Value) ([]relation.Tuple, error) {
	start, before := s.tr.now(), readsOf(es)
	ts, err := s.Backend.FetchInto(es, e, vals)
	s.done(es, kFetch, start, before)
	return ts, err
}

func (s *tracedStore) MembershipInto(es *store.ExecStats, rel string, t relation.Tuple) (bool, error) {
	start, before := s.tr.now(), readsOf(es)
	ok, err := s.Backend.MembershipInto(es, rel, t)
	s.done(es, kMember, start, before)
	return ok, err
}

func (s *tracedStore) ScanInto(es *store.ExecStats, rel string) ([]relation.Tuple, error) {
	start, before := s.tr.now(), readsOf(es)
	ts, err := s.Backend.ScanInto(es, rel)
	s.done(es, kScan, start, before)
	return ts, err
}

func (s *tracedStore) ChargeScanned(es *store.ExecStats, n int) error {
	start, before := s.tr.now(), readsOf(es)
	err := s.Backend.ChargeScanned(es, n)
	s.done(es, kScan, start, before)
	return err
}

func (s *tracedStore) ApplyUpdate(u *relation.Update) error {
	start := s.tr.now()
	err := s.Backend.ApplyUpdate(u)
	s.write(kApply, start)
	return err
}

// tracedLocal forwards the optional interfaces of the single-node store.
type tracedLocal struct {
	*tracedStore
	v   store.Versioned
	val store.Validator
	ddl store.DDL
	st  store.Streamer
	est store.EntryStats
}

func (s *tracedLocal) ApplyVersioned(u *relation.Update) (int64, error) {
	start := s.tr.now()
	seq, err := s.v.ApplyVersioned(u)
	s.write(kApply, start)
	return seq, err
}

func (s *tracedLocal) Version() int64 { return s.v.Version() }

func (s *tracedLocal) ValidateUpdate(u *relation.Update) error {
	start := s.tr.now()
	err := s.val.ValidateUpdate(u)
	s.write(kValidate, start)
	return err
}

func (s *tracedLocal) AddRelation(rs relation.RelSchema, entries []access.Entry, tuples []relation.Tuple) error {
	return s.ddl.AddRelation(rs, entries, tuples)
}

func (s *tracedLocal) DropRelation(name string) error { return s.ddl.DropRelation(name) }
func (s *tracedLocal) HasRelation(name string) bool   { return s.ddl.HasRelation(name) }

func (s *tracedLocal) ApplyDerived(u *relation.Update) error {
	start := s.tr.now()
	err := s.ddl.ApplyDerived(u)
	s.write(kApplyDerived, start)
	return err
}

// ScanSeq counts the scan; its reads are charged lazily as the consumer
// pulls, so the stream is not timed.
func (s *tracedLocal) ScanSeq(es *store.ExecStats, rel string) store.TupleSeq {
	s.done(es, kScan, s.tr.now(), readsOf(es))
	return s.st.ScanSeq(es, rel)
}

func (s *tracedLocal) MaxGroup(e access.Entry) (int, bool) { return s.est.MaxGroup(e) }

// shardVersions is the per-shard LSN report the server's /metricsz reads
// from a partitioned backend.
type shardVersions interface{ ShardVersions() []int64 }

// tracedSharded adds what a partitioned backend implements beyond the
// single-node store: plan-time fetch routing and per-shard LSNs.
type tracedSharded struct {
	*tracedLocal
	rp store.RoutePlanner
	sv shardVersions
}

func (s *tracedSharded) PlanFetch(e access.Entry) store.FetchRoute { return s.rp.PlanFetch(e) }

func (s *tracedSharded) FetchPlanned(es *store.ExecStats, e access.Entry, vals []relation.Value, r store.FetchRoute) ([]relation.Tuple, error) {
	start, before := s.tr.now(), readsOf(es)
	ts, err := s.rp.FetchPlanned(es, e, vals, r)
	s.done(es, kFetch, start, before)
	return ts, err
}

func (s *tracedSharded) ShardVersions() []int64 { return s.sv.ShardVersions() }

// optional is a set of the optional interfaces a backend implements.
type optional uint8

const (
	optVersioned optional = 1 << iota
	optValidator
	optDDL
	optStreamer
	optEntryStats
	optRoutePlanner
	optShardVersions

	localSet   = optVersioned | optValidator | optDDL | optStreamer | optEntryStats
	shardedSet = localSet | optRoutePlanner | optShardVersions
)

func optionals(b store.Backend) optional {
	var o optional
	if _, ok := b.(store.Versioned); ok {
		o |= optVersioned
	}
	if _, ok := b.(store.Validator); ok {
		o |= optValidator
	}
	if _, ok := b.(store.DDL); ok {
		o |= optDDL
	}
	if _, ok := b.(store.Streamer); ok {
		o |= optStreamer
	}
	if _, ok := b.(store.EntryStats); ok {
		o |= optEntryStats
	}
	if _, ok := b.(store.RoutePlanner); ok {
		o |= optRoutePlanner
	}
	if _, ok := b.(shardVersions); ok {
		o |= optShardVersions
	}
	return o
}

// traceStore wraps b so that every store call is recorded into tr. It
// fails for a backend whose set of optional interfaces no decorator type
// here reproduces exactly.
func traceStore(b store.Backend, tr *tracer) (store.Backend, error) {
	base := &tracedStore{Backend: b, tr: tr}
	set := optionals(b)
	if set != localSet && set != shardedSet {
		return nil, fmt.Errorf("perfbench: no store decorator forwards exactly the optional interfaces of %T (set %07b)", b, set)
	}
	local := &tracedLocal{
		tracedStore: base,
		v:           b.(store.Versioned),
		val:         b.(store.Validator),
		ddl:         b.(store.DDL),
		st:          b.(store.Streamer),
		est:         b.(store.EntryStats),
	}
	if set == localSet {
		return local, nil
	}
	return &tracedSharded{tracedLocal: local, rp: b.(store.RoutePlanner), sv: b.(shardVersions)}, nil
}
