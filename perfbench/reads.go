package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/query"
)

// readRec is one completed (or failed) read.
type readRec struct {
	lat     int64 // latency in nanoseconds
	late    int64 // open loop: how late the generator started it
	reads   int64 // TupleReads charged
	answers int64
	shape   uint8
	client  uint8
	oneShot bool
	failed  bool
}

// readOnce runs one in-process read and drains its cursor: the prepared
// plan, or with oneShot the query text parsed and answered through
// Engine.QueryContext (the plan-cache path). With tr, it records the
// read's span, its parse and open calls and each Rows.Next call; store
// calls land under the Next call that made them. The returned error is a
// broken output check; an engine error only marks the record failed
// unless it falls outside the typed taxonomy.
func readOnce(ctx context.Context, eng *core.Engine, sh *shape, fixed query.Bindings, oneShot bool, tr *tracer) (readRec, error) {
	rec := readRec{oneShot: oneShot}
	var c *cursor
	var root uint64
	var t0 int64
	if tr != nil {
		root = tr.id()
		c = &cursor{req: root, role: roleQuery}
		c.cur.Store(root)
		ctx = withCursor(ctx, c)
		t0 = tr.now()
	}
	start := time.Now()
	rows, err := openRead(ctx, eng, sh, fixed, oneShot, tr, root)
	if err != nil {
		rec.failed = true
		return rec, untyped(sh, err)
	}
	if tr == nil {
		for rows.Next() {
			rec.answers++
		}
	} else {
		for {
			id, s := tr.id(), tr.now()
			c.cur.Store(id)
			ok := rows.Next()
			tr.record(span{id: id, parent: root, req: root, kind: kNext, start: s, end: tr.now()})
			if !ok {
				break
			}
			rec.answers++
		}
	}
	err = rows.Err()
	rec.reads = rows.Cost().TupleReads
	rows.Close()
	rec.lat = int64(time.Since(start))
	if tr != nil {
		tr.record(span{id: root, req: root, kind: kRead, start: t0, end: tr.now()})
	}
	if err != nil {
		rec.failed = true
		return rec, untyped(sh, err)
	}
	if rec.reads > sh.bound {
		return rec, fmt.Errorf("%s %v: %d tuple reads over the plan's bound M = %d", sh.name, fixed, rec.reads, sh.bound)
	}
	return rec, nil
}

// openRead opens the read's cursor, timing the parse and open calls.
func openRead(ctx context.Context, eng *core.Engine, sh *shape, fixed query.Bindings, oneShot bool, tr *tracer, root uint64) (*core.Rows, error) {
	if !oneShot {
		s := stamp(tr)
		rows, err := sh.prep.Query(ctx, fixed, core.WithoutTrace())
		s.done(kOpen, root)
		return rows, err
	}
	s := stamp(tr)
	q, err := parseQuery(sh.src)
	s.done(kParse, root)
	if err != nil {
		return nil, err
	}
	s = stamp(tr)
	rows, err := eng.QueryContext(ctx, q, fixed, core.WithoutTrace())
	s.done(kOpen, root)
	return rows, err
}

// stamper times one call as a child of the root span; a nil tracer makes
// it a no-op.
type stamper struct {
	tr    *tracer
	start int64
}

func stamp(tr *tracer) stamper {
	if tr == nil {
		return stamper{}
	}
	return stamper{tr: tr, start: tr.now()}
}

func (s stamper) done(k kind, root uint64) {
	if s.tr != nil {
		s.tr.record(span{id: s.tr.id(), parent: root, req: root, kind: k, start: s.start, end: s.tr.now()})
	}
}

// untyped turns an engine error outside the typed taxonomy into a broken
// check; typed errors only count as failed operations.
func untyped(sh *shape, err error) error {
	if typed(err) {
		return nil
	}
	return fmt.Errorf("%s: error outside the typed taxonomy: %w", sh.name, err)
}
