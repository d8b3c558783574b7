package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/backendtest"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

const (
	// watchers is the number of live Q2 subscriptions on the commit
	// stream's hot persons, each drained by its own consumer goroutine.
	watchers = 16
	// readerRate is the open-loop reader's schedule, in reads per second:
	// enough samples for a 99th percentile in each set-up's window, little
	// enough load that the reader observes the commit path, not itself.
	readerRate = 200
	// commitsPerSecond sizes the generated commit stream per second of
	// the run's window. A committer that uses it up ends its window early;
	// the rates are taken over the time measured.
	commitsPerSecond = 1000
)

// commitReaderMix is what the open-loop reader runs beside the writes:
// prepared Q1 and the view-rescued Q6.
var commitReaderMix = []mixEntry{{"Q1", 70}, {"Q6", 30}}

// inputs are generated once per run from the seed, outside the timed
// set-up: the commit stream and the hot persons it targets.
type inputs struct {
	hot     []int64
	commits []*relation.Update
}

func commitInputs(seed int64, seconds int) (*inputs, error) {
	cfg := dataConfig(seed)
	data, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 2))
	in := &inputs{}
	for _, p := range rng.Perm(persons)[:watchers] {
		in.hot = append(in.hot, int64(p))
	}
	in.commits = workload.MixedCommits(data, cfg, commitsPerSecond*seconds, in.hot, seed+3)
	return in, nil
}

type commitRec struct {
	lat        int64
	maintReads int64 // watcher plus view maintenance reads
	watchers   int
	phases     core.CommitPhases
	failed     bool
}

type deltaRec struct {
	seq          int64
	recv         int64 // nanoseconds since the window opened
	lag, wakeup  int64 // recv minus the Commit call's start and return
	reads, bound int64
}

type commitLive struct {
	sys    *system
	in     *inputs
	seed   int64
	shapes []*shape // the reader's queries
	prep2  *core.PreparedQuery
	lives  []*core.Live
	wcurs  []*cursor // each watcher's context cursor
	deltas [][]deltaRec
	// commitStart and commitEnd hold, per engine commit sequence number,
	// when the Commit call started and returned (nanoseconds since the
	// window opened).
	commitStart, commitEnd []atomic.Int64
}

func setupCommitLive(seed int64, tr *tracer, in *inputs) (instance, error) {
	sys, err := openSystem(seed, tr)
	if err != nil {
		return nil, err
	}
	def, err := parser.ParseCQ(backendtest.VFolSrc)
	if err != nil {
		return nil, err
	}
	if _, err := sys.eng.CreateView(def, access.Plain("VFol", []string{"p"}, sys.cfg.MaxFriends+64, 1)); err != nil {
		return nil, fmt.Errorf("create view VFol: %w", err)
	}
	shapes, err := prepareShapes(sys.eng, commitReaderMix)
	if err != nil {
		return nil, err
	}
	w := &commitLive{sys: sys, in: in, seed: seed, shapes: shapes}
	q2, err := parseQuery(workload.Q2Src)
	if err != nil {
		return nil, err
	}
	if w.prep2, err = sys.eng.Prepare(q2, query.NewVarSet("p")); err != nil {
		return nil, err
	}
	for _, p := range in.hot {
		c := &cursor{role: roleWatcher}
		l, err := w.prep2.Watch(withCursor(bg, c), query.Bindings{"p": relation.Int(p)})
		if err != nil {
			w.close()
			return nil, fmt.Errorf("watch Q2 p=%d: %w", p, err)
		}
		w.lives = append(w.lives, l)
		w.wcurs = append(w.wcurs, c)
	}
	return w, nil
}

func (w *commitLive) run(window time.Duration) *phase {
	ph := newPhase(w.shapes)
	n := len(w.in.commits) + 1
	w.commitStart, w.commitEnd = make([]atomic.Int64, n), make([]atomic.Int64, n)
	w.deltas = make([][]deltaRec, len(w.lives))
	runtime.GC()
	ph.begin()
	var consumers sync.WaitGroup
	for i, l := range w.lives {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for d, err := range l.Deltas() {
				if err != nil {
					return // surfaced by l.Err in check
				}
				w.deltas[i] = append(w.deltas[i], deltaRec{seq: d.Seq, recv: int64(time.Since(ph.start)), reads: d.Cost.TupleReads, bound: d.Bound})
			}
		}()
	}
	deadline := ph.start.Add(window)
	var wg sync.WaitGroup
	var reads []readRec
	var readErrs []error
	var stopped atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads, readErrs = w.reader(ph.start, deadline, &stopped)
	}()
	w.committer(ph, deadline)
	stopped.Store(true)
	wg.Wait()
	ph.end()
	for i, rec := range reads {
		ph.addRead(rec, readErrs[i])
	}
	// Closing the subscriptions lets each consumer drain its queue and
	// return; Snapshot keeps serving the final maintained state.
	for _, l := range w.lives {
		l.Close()
	}
	consumers.Wait()
	for _, ds := range w.deltas {
		for _, d := range ds {
			if d.reads > d.bound {
				ph.problem(fmt.Sprintf("delta seq %d charged %d reads over its bound %d", d.seq, d.reads, d.bound))
			}
			d.lag = d.recv - w.commitStart[d.seq].Load()
			d.wakeup = d.recv - w.commitEnd[d.seq].Load()
			ph.deltas = append(ph.deltas, d)
		}
	}
	return ph
}

// committer drives the commit stream through Engine.Commit in a closed
// loop until the deadline or the end of the stream.
func (w *commitLive) committer(ph *phase, deadline time.Time) {
	tr := w.sys.tr
	c := &cursor{role: roleCommit}
	ctx := withCursor(bg, c)
	seq0 := w.sys.eng.CommitSeq()
	for i, u := range w.in.commits {
		if !time.Now().Before(deadline) {
			return
		}
		var id uint64
		var t0 int64
		if tr != nil {
			id = tr.id()
			c.cur.Store(id)
			for _, wc := range w.wcurs {
				wc.cur.Store(id)
			}
			t0 = tr.now()
		}
		seq := seq0 + int64(i) + 1
		start := time.Now()
		w.commitStart[seq].Store(int64(start.Sub(ph.start)))
		res, err := w.sys.eng.Commit(ctx, u)
		end := time.Now()
		w.commitEnd[seq].Store(int64(end.Sub(ph.start)))
		if tr != nil {
			tr.record(span{id: id, req: id, kind: kCommit, start: t0, end: tr.now()})
		}
		rec := commitRec{lat: int64(end.Sub(start))}
		if err != nil {
			rec.failed = true
			ph.problem(fmt.Sprintf("commit %d: %v", i, err))
			ph.commits = append(ph.commits, rec)
			return
		}
		if res.Seq != seq {
			ph.problem(fmt.Sprintf("commit %d got sequence %d, want %d", i, res.Seq, seq))
		}
		rec.maintReads = res.Maintenance.TupleReads + res.ViewReads
		rec.watchers, rec.phases = res.Watchers, res.Phases
		ph.commits = append(ph.commits, rec)
	}
}

// reader runs reads on a fixed open-loop schedule, timing each from when
// it was due, until the deadline or until the committer stops.
func (w *commitLive) reader(start, deadline time.Time, stopped *atomic.Bool) ([]readRec, []error) {
	b := newBinder(w.seed+4, w.shapes, w.sys.cfg.Years)
	interval := time.Second / readerRate
	var recs []readRec
	var errs []error
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(deadline) || stopped.Load() {
			return recs, errs
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due)
		i, fixed := b.next()
		rec, err := readOnce(bg, w.sys.eng, w.shapes[i], fixed, false, w.sys.tr)
		rec.shape, rec.late = uint8(i), int64(late)
		rec.lat = int64(time.Since(due))
		recs = append(recs, rec)
		errs = append(errs, err)
	}
}

// check runs after the window: every live snapshot equals a fresh
// execution, no subscription failed, and sampled Q1/Q6 answers equal
// naive evaluation over the committed state.
func (w *commitLive) check() []string {
	var problems []string
	for i, l := range w.lives {
		if err := l.Err(); err != nil {
			problems = append(problems, fmt.Sprintf("watcher p=%d failed: %v", w.in.hot[i], err))
			continue
		}
		want, err := w.prep2.Exec(bg, query.Bindings{"p": relation.Int(w.in.hot[i])}, core.WithoutTrace())
		if err != nil {
			problems = append(problems, fmt.Sprintf("Q2 p=%d: %v", w.in.hot[i], err))
			continue
		}
		if !l.Snapshot().Equal(want.Tuples) {
			problems = append(problems, fmt.Sprintf("watcher p=%d: live snapshot has %d answers, a fresh Exec %d",
				w.in.hot[i], l.Snapshot().Len(), want.Tuples.Len()))
		}
	}
	return append(problems, checkOracle(w.sys, w.shapes, w.seed+5, 3)...)
}

func (w *commitLive) close() {
	for _, l := range w.lives {
		l.Close()
	}
}
