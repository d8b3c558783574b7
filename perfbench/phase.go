package main

import (
	"fmt"
	"time"
)

// phase is what one measured window recorded.
type phase struct {
	queries  []mixQuery // the mix's queries, by shape index
	start    time.Time
	window   time.Duration
	rt0, rt1 rtSample
	reads    []readRec
	commits  []commitRec
	deltas   []deltaRec
	problems []string
	// m holds metrics the workload measured itself: /metricsz and plan
	// cache counter differences.
	m map[string]float64
}

// maxProblems caps the output-check failures one window keeps.
const maxProblems = 20

func newPhase(shapes []*shape) *phase {
	ph := &phase{m: map[string]float64{}}
	for _, sh := range shapes {
		ph.queries = append(ph.queries, mixQuery{sh.name, sh.bound})
	}
	return ph
}

// mixQuery names one query of a mix and its static read bound M; a phase
// keeps these, not the prepared plans, so that it does not hold the
// engine and its data alive after the set-up is closed.
type mixQuery struct {
	name  string
	bound int64
}

func (p *phase) begin() {
	p.rt0 = sampleRuntime()
	p.start = p.rt0.at
}

func (p *phase) end() {
	p.rt1 = sampleRuntime()
	p.window = p.rt1.at.Sub(p.start)
}

func (p *phase) problem(s string) {
	if len(p.problems) < maxProblems {
		p.problems = append(p.problems, s)
	}
}

// addRead keeps one read; err is a broken output check.
func (p *phase) addRead(rec readRec, err error) {
	if err != nil {
		p.problem(err.Error())
	}
	p.reads = append(p.reads, rec)
}

// us converts nanoseconds to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// opLatencies returns the latencies in microseconds of the closed loop's
// completed operations: commits, or reads.
func opLatencies(ph *phase, commits bool) []float64 {
	var out []float64
	if commits {
		for _, c := range ph.commits {
			if !c.failed {
				out = append(out, us(c.lat))
			}
		}
		return out
	}
	return readLatencies(ph, -1)
}

// readLatencies returns the completed reads' latencies in microseconds,
// of one shape or (shape < 0) of all.
func readLatencies(ph *phase, shape int) []float64 {
	var out []float64
	for _, r := range ph.reads {
		if !r.failed && (shape < 0 || int(r.shape) == shape) {
			out = append(out, us(r.lat))
		}
	}
	return out
}

func opMedian(ph *phase, commits bool) float64 { return median(opLatencies(ph, commits)) }

// endToEnd puts the metrics of an untraced window into m: the end-to-end
// ones and the per-layer ones that come from counters, not spans.
func endToEnd(m map[string]float64, ph *phase, commits bool) {
	secs := ph.window.Seconds()
	ops := opLatencies(ph, commits)
	reads := readLatencies(ph, -1)
	var readTotal, answers, failed float64
	for _, r := range ph.reads {
		if r.failed {
			failed++
			continue
		}
		readTotal += float64(r.reads)
		answers += float64(r.answers)
	}
	nReads := float64(len(reads))
	m["ops_per_s"] = float64(len(ops)) / secs
	m["op_p50_us"] = quantile(ops, 0.5)
	m["op_p99_us"] = quantile(ops, 0.99)
	m["read_p50_us"] = quantile(reads, 0.5)
	m["read_p99_us"] = quantile(reads, 0.99)
	m["reads_per_query"] = ratio(readTotal, nReads)
	m["plan.answers_per_query"] = ratio(answers, nReads)
	m["reads_per_op"] = m["reads_per_query"]

	var maint, watchers, validate, maintain, apply, notify float64
	for _, c := range ph.commits {
		if c.failed {
			failed++
			continue
		}
		maint += float64(c.maintReads)
		watchers += float64(c.watchers)
		validate += us(int64(c.phases.Validate))
		maintain += us(int64(c.phases.Maintain))
		apply += us(int64(c.phases.Apply))
		notify += us(int64(c.phases.Notify))
	}
	if commits {
		n := float64(len(ops))
		m["reads_per_op"] = ratio(maint, n)
		m["core.commit.validate_us"] = ratio(validate, n)
		m["core.commit.maintain_us"] = ratio(maintain, n)
		m["core.commit.apply_us"] = ratio(apply, n)
		m["core.commit.notify_us"] = ratio(notify, n)
		m["core.watchers_per_commit"] = ratio(watchers, n)
		var lags, wakeups []float64
		for _, d := range ph.deltas {
			lags = append(lags, us(d.lag))
			wakeups = append(wakeups, us(d.wakeup))
		}
		m["delta_lag_p50_us"] = quantile(lags, 0.5)
		m["delta_lag_p99_us"] = quantile(lags, 0.99)
		m["core.delta_wakeup_us"] = mean(wakeups)
		var late []float64
		for _, r := range ph.reads {
			late = append(late, us(r.late))
		}
		m["bench.gen_late_p99_us"] = quantile(late, 0.99)
	}
	m["fail_ratio"] = ratio(failed, float64(len(ph.reads)+len(ph.commits)))
	runtimeMetrics(m, ph.rt0, ph.rt1, int64(len(reads))+int64(len(ph.commits)))
	for k, v := range ph.m {
		m[k] = v
	}
}

// layerMetrics puts the span-derived per-layer metrics of the traced
// window into m and returns note lines: the layer sum against the
// measured latency and the latency model per query. untraced is the same
// run's untraced window, whose latencies the model is set against.
func layerMetrics(m map[string]float64, ph, untraced *phase, spans []span, commits bool) []string {
	self := selfTimes(spans)
	type agg struct{ n, dur, self float64 }
	var by [len(kindNames)]agg
	var q struct{ fetchN, fetchDur, memberN, memberDur, scanN, reads float64 }
	var maintDur float64
	for _, s := range spans {
		a := &by[s.kind]
		a.n++
		a.dur += us(s.dur())
		a.self += us(self[s.id])
		if s.kind != kFetch && s.kind != kMember && s.kind != kScan {
			continue
		}
		switch s.role {
		case roleQuery:
			q.reads += float64(s.reads)
			switch s.kind {
			case kFetch:
				q.fetchN++
				q.fetchDur += us(s.dur())
			case kMember:
				q.memberN++
				q.memberDur += us(s.dur())
			case kScan:
				q.scanN++
			}
		case roleWatcher, roleCommit:
			maintDur += us(s.dur())
		}
	}
	inProcess := by[kRead].n > 0
	nq := by[kRead].n + by[kRequest].n
	storeQ := ratio(q.fetchDur+q.memberDur, nq)
	m["store.fetch_calls_per_query"] = ratio(q.fetchN, nq)
	m["store.fetch_us_per_query"] = ratio(q.fetchDur, nq)
	m["store.member_calls_per_query"] = ratio(q.memberN, nq)
	m["store.member_us_per_query"] = ratio(q.memberDur, nq)
	m["store.scan_calls_per_query"] = ratio(q.scanN, nq)
	m["store.us_per_read"] = ratio(q.fetchDur+q.memberDur, q.reads)
	m["parser.parse_us"] = ratio(by[kParse].dur, by[kParse].n)
	m["core.open_us"] = ratio(by[kOpen].dur, by[kOpen].n)
	if commits {
		m["store.validate_us"] = ratio(by[kValidate].dur, by[kValidate].n)
		m["store.apply_us"] = ratio(by[kApply].dur, by[kApply].n)
		m["store.maint_us_per_commit"] = ratio(maintDur, by[kCommit].n)
	}

	var notes []string
	var fixed, latency, residual float64
	if inProcess {
		latency = ratio(by[kRead].dur, nq)
		residual = ratio(by[kRead].self, nq)
		m["plan.next_self_us"] = ratio(by[kNext].self, nq)
		fixed = m["core.open_us"]
		notes = append(notes, fmt.Sprintf("layer sum per read (us): parse %.2f + open %.2f + next self %.2f + store %.2f + unattributed %.2f = latency %.2f",
			ratio(by[kParse].dur, nq), ratio(by[kOpen].dur, nq), m["plan.next_self_us"], storeQ, residual, latency))
	} else {
		handler := ratio(by[kHandler].dur, by[kHandler].n)
		engine := m["server.engine_us"]
		m["server.handler_us"] = handler
		m["server.wire_us"] = handler - engine
		m["client.overhead_us"] = ratio(by[kRequest].self, nq)
		m["plan.next_self_us"] = engine - storeQ
		latency = ratio(by[kRequest].dur, nq)
		residual = latency - m["client.overhead_us"] - ratio(by[kHandler].self, nq) - storeQ
		fixed = m["server.wire_us"]
		notes = append(notes, fmt.Sprintf("layer sum per read (us): client %.2f + wire %.2f + engine self %.2f + store %.2f + unattributed %.2f = latency %.2f",
			m["client.overhead_us"], m["server.wire_us"], m["plan.next_self_us"], storeQ, residual, latency))
	}
	m["bench.residual_us"] = residual

	// PIQL-style model: a read of query s costs at most M_s reads at the
	// measured cost per read, plus the fixed per-request cost.
	model := make([]float64, len(ph.queries))
	for i, sh := range ph.queries {
		model[i] = float64(sh.bound)*m["store.us_per_read"] + fixed
		notes = append(notes, fmt.Sprintf("model %s: M %d x %.4f us/read + fixed %.2f us = %.1f us; measured untraced p50 %.1f us, p99 %.1f us",
			sh.name, sh.bound, m["store.us_per_read"], fixed, model[i],
			quantile(readLatencies(untraced, i), 0.5), quantile(readLatencies(untraced, i), 0.99)))
	}
	var predicted []float64
	for _, r := range ph.reads {
		if !r.failed {
			predicted = append(predicted, model[r.shape])
		}
	}
	m["bench.model_p99_us"] = quantile(predicted, 0.99)
	return notes
}

// sameReads checks that the traced window charged the same TupleReads as
// the untraced one over their common prefix of operations: per read, per
// client, on the read workloads; per commit (maintenance reads) on
// commit_live, whose reader interleaves with the commits and is not
// comparable read by read.
func sameReads(a, b *phase, commits bool) []string {
	seqs := func(ph *phase) [][]int64 {
		if commits {
			var s []int64
			for _, c := range ph.commits {
				s = append(s, c.maintReads)
			}
			return [][]int64{s}
		}
		var out [][]int64
		for _, r := range ph.reads {
			for int(r.client) >= len(out) {
				out = append(out, nil)
			}
			out[r.client] = append(out[r.client], r.reads)
		}
		return out
	}
	sa, sb := seqs(a), seqs(b)
	var compared int
	for c := 0; c < min(len(sa), len(sb)); c++ {
		for i := 0; i < min(len(sa[c]), len(sb[c])); i++ {
			compared++
			if sa[c][i] != sb[c][i] {
				return []string{fmt.Sprintf("traced run charged %d TupleReads on operation %d of client %d, the untraced run %d", sb[c][i], i, c, sa[c][i])}
			}
		}
	}
	if compared == 0 {
		return []string{"traced and untraced runs have no operations in common to compare TupleReads on"}
	}
	return nil
}
