package main

import (
	"bufio"
	"cmp"
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// kind names what a span covers: a call the benchmark makes into one
// layer's public API, or a store call seen by the store decorator.
type kind uint8

const (
	kRead         kind = iota // one in-process read, from the first call to the drained cursor
	kParse                    // parser.ParseQuery / ParseCQ on a one-shot read
	kOpen                     // PreparedQuery.Query or Engine.QueryContext
	kNext                     // one Rows.Next call
	kRequest                  // one HTTP read on the client: Prepared.Query to the drained stream
	kHandler                  // the server's ServeHTTP on POST /query
	kCommit                   // one Engine.Commit call
	kFetch                    // Backend.FetchInto / RoutePlanner.FetchPlanned
	kMember                   // Backend.MembershipInto
	kScan                     // Backend.ScanInto, ChargeScanned or a Streamer scan (untimed)
	kValidate                 // Validator.ValidateUpdate
	kApply                    // Versioned.ApplyVersioned / Backend.ApplyUpdate
	kApplyDerived             // DDL.ApplyDerived (view deltas)
)

var kindNames = [...]string{"read", "parse", "open", "next", "request", "handler", "commit",
	"store.fetch", "store.member", "store.scan", "store.validate", "store.apply", "store.apply_derived"}

func (k kind) String() string { return kindNames[k] }

// role says on whose behalf a store call ran, from the context the engine
// handed the store.
type role uint8

const (
	roleNone    role = iota // no benchmark context: an untracked caller
	roleQuery               // a read: in-process cursor or HTTP handler
	roleWatcher             // live-query maintenance under a watcher's context
	roleCommit              // view maintenance under the committer's context
)

var roleNames = [...]string{"none", "query", "watcher", "commit"}

// span is one timed call. Times are nanoseconds since the tracer's base.
type span struct {
	id, parent, req uint64
	start, end      int64
	reads           int64 // tuple reads the call charged (store spans)
	kind            kind
	role            role
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory for the whole traced run; write saves them
// at exit.
type tracer struct {
	base time.Time
	ids  atomic.Uint64
	mu   sync.Mutex
	// spans is guarded by mu.
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }
func (t *tracer) id() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// write saves every span as one JSON object per line, gzip-compressed.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // after the checked Close below, a no-op
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(zw)
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"role":%q,"start_ns":%d,"end_ns":%d,"reads":%d}`+"\n",
			s.id, s.parent, s.req, s.kind, roleNames[s.role], s.start, s.end, s.reads)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// cursor travels in the context the benchmark hands the engine. cur is the
// span that store calls made under this context belong to; the benchmark
// moves it as it enters each Rows.Next or Commit call.
type cursor struct {
	cur  atomic.Uint64
	req  uint64
	role role
}

type cursorKey struct{}

func withCursor(ctx context.Context, c *cursor) context.Context {
	return context.WithValue(ctx, cursorKey{}, c)
}

func cursorOf(ctx context.Context) *cursor {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(cursorKey{}).(*cursor)
	return c
}

// selfTimes maps each span id to its duration minus the part of its
// interval that its child spans cover.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.id] = s.dur() - covered(s.start, s.end, children[s.id])
	}
	return self
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
