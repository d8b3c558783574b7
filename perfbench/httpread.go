package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/server/client"
)

// httpMix is what each HTTP client sends: prepared Q1 with some Q4.
var httpMix = []mixEntry{{"Q1", 90}, {"Q4", 10}}

// httpClients is the number of client connections, each a closed loop.
const httpClients = 2

// spanHeader carries the client's span id to the server's handler wrapper.
const spanHeader = "X-Perfbench-Span"

type httpRead struct {
	sys    *system
	shapes []*shape // the same queries prepared in process, for bounds and checks
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	base   string
	hcs    []*http.Client
	preps  [][]*client.Prepared // per client, per shape
	seed   int64
}

func setupHTTPRead(seed int64, tr *tracer, _ *inputs) (instance, error) {
	sys, err := openSystem(seed, tr)
	if err != nil {
		return nil, err
	}
	shapes, err := prepareShapes(sys.eng, httpMix)
	if err != nil {
		return nil, err
	}
	w := &httpRead{sys: sys, shapes: shapes, seed: seed, served: make(chan struct{})}
	w.srv = server.NewServer(server.Config{Engine: sys.eng, Metrics: obs.NewRegistry()})
	var h http.Handler = w.srv
	if tr != nil {
		h = &tracedHandler{next: w.srv, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.hs = &http.Server{Handler: h}
	go func() {
		defer close(w.served)
		w.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	w.base = "http://" + ln.Addr().String()
	for c := 0; c < httpClients; c++ {
		var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		if tr != nil {
			rt = spanTransport{base: rt}
		}
		hc := &http.Client{Transport: rt}
		w.hcs = append(w.hcs, hc)
		cl := client.New(w.base, client.WithTenant("bench"), client.WithHTTPClient(hc))
		var ps []*client.Prepared
		for _, sh := range shapes {
			p, err := cl.Prepare(bg, sh.src, querySrc[sh.name].ctrl...)
			if err != nil {
				w.close()
				return nil, fmt.Errorf("prepare %s over HTTP: %w", sh.name, err)
			}
			ps = append(ps, p)
		}
		w.preps = append(w.preps, ps)
	}
	return w, nil
}

func (w *httpRead) run(window time.Duration) *phase {
	ph := newPhase(w.shapes)
	m0, err0 := scrape(w.hcs[0], w.base)
	runtime.GC()
	ph.begin()
	deadline := ph.start.Add(window)
	recs := make([][]readRec, httpClients)
	errs := make([][]error, httpClients)
	var wg sync.WaitGroup
	for c := 0; c < httpClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b := newBinder(w.seed+int64(c), w.shapes, w.sys.cfg.Years)
			for time.Now().Before(deadline) {
				i, fixed := b.next()
				rec, err := w.read(w.preps[c][i], w.shapes[i], fixed)
				rec.shape, rec.client = uint8(i), uint8(c)
				recs[c] = append(recs[c], rec)
				errs[c] = append(errs[c], err)
			}
		}(c)
	}
	wg.Wait()
	ph.end()
	for c := range recs {
		for i, rec := range recs[c] {
			ph.addRead(rec, errs[c][i])
		}
	}
	m1, err1 := scrape(w.hcs[0], w.base)
	if err := errors.Join(err0, err1); err != nil {
		ph.problem(err.Error())
		return ph
	}
	d := func(k string) float64 { return m1[k] - m0[k] }
	ph.m["server.engine_us"] = ratio(d("si_query_latency_seconds_sum")*1e6, d("si_query_latency_seconds_count"))
	ph.m["server.admitted"] = d("si_admission_total/admitted")
	ph.m["server.rejected"] = d("si_admission_total/rejected_bound") + d("si_admission_total/rejected_budget") +
		d("si_admission_total/rejected_concurrency")
	return ph
}

// read sends one prepared query over HTTP and drains the NDJSON stream.
// Admission rejections and other typed errors count as failed reads.
func (w *httpRead) read(p *client.Prepared, sh *shape, fixed query.Bindings) (readRec, error) {
	var rec readRec
	ctx := bg
	tr := w.sys.tr
	var root uint64
	var t0 int64
	if tr != nil {
		root = tr.id()
		c := &cursor{req: root, role: roleQuery}
		c.cur.Store(root)
		ctx = withCursor(ctx, c)
		t0 = tr.now()
	}
	start := time.Now()
	rows, err := p.Query(ctx, fixed)
	if err != nil {
		rec.failed = true
		return rec, untyped(sh, err)
	}
	for rows.Next() {
		rec.answers++
	}
	err = rows.Err()
	st := rows.Stats()
	rows.Close()
	rec.lat = int64(time.Since(start))
	if tr != nil {
		tr.record(span{id: root, req: root, kind: kRequest, start: t0, end: tr.now()})
	}
	if err != nil {
		rec.failed = true
		return rec, untyped(sh, err)
	}
	rec.reads = st.Reads
	if st.Reads > sh.bound || st.Bound != sh.bound {
		return rec, fmt.Errorf("%s %v over HTTP: %d reads under bound %d, the in-process plan's M is %d", sh.name, fixed, st.Reads, st.Bound, sh.bound)
	}
	return rec, nil
}

// check compares, for a fixed sample of bindings, the answers served over
// HTTP with in-process Exec.
func (w *httpRead) check() []string {
	b := newBinder(w.seed+100, w.shapes, w.sys.cfg.Years)
	var problems []string
	for i, sh := range w.shapes {
		for k := 0; k < 5; k++ {
			fixed := b.bind(sh.name, int64(b.rng.Intn(persons)))
			got, _, err := w.preps[0][i].Exec(bg, fixed)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s %v over HTTP: %v", sh.name, fixed, err))
				continue
			}
			want, err := sh.prep.Exec(bg, fixed, core.WithoutTrace())
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s %v in process: %v", sh.name, fixed, err))
				continue
			}
			gs := relation.NewTupleSet(len(got))
			gs.AddAll(got)
			if !gs.Equal(want.Tuples) || gs.Len() != len(got) {
				problems = append(problems, fmt.Sprintf("%s %v: %d answers over HTTP, %d in process", sh.name, fixed, len(got), want.Tuples.Len()))
			}
		}
	}
	return problems
}

func (w *httpRead) close() {
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	w.srv.Drain(ctx)   //nolint:errcheck // best effort; Shutdown below bounds the wait
	w.hs.Shutdown(ctx) //nolint:errcheck // best effort at exit
	<-w.served
	for _, hc := range w.hcs {
		hc.CloseIdleConnections()
	}
}

// tracedHandler records a span around the server's ServeHTTP for POST
// /query and hands the engine a context whose cursor parents the store
// calls the request makes.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/query" {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64) // absent: an untracked request
	id := h.tr.id()
	c := &cursor{req: parent, role: roleQuery}
	c.cur.Store(id)
	start := h.tr.now()
	h.next.ServeHTTP(w, r.WithContext(withCursor(r.Context(), c)))
	h.tr.record(span{id: id, parent: parent, req: parent, kind: kHandler, start: start, end: h.tr.now()})
}

// spanTransport sends the client span named by the request's context to
// the server in spanHeader.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if c := cursorOf(req.Context()); c != nil {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(c.cur.Load(), 10))
	}
	return t.base.RoundTrip(req)
}
