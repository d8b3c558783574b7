package main

import (
	"runtime"
	"time"
)

// readMix is one goroutine in a closed loop over prepared Q1/Q4/Q2/Q3/Q5
// in process, with a share of one-shot calls that parse the query text
// and go through the plan cache.
var readMixMix = []mixEntry{{"Q1", 50}, {"Q4", 20}, {"Q2", 15}, {"Q3", 10}, {"Q5", 5}}

// oneShotPct is the share of read_mix calls, in percent, that parse the
// query text and answer through Engine.QueryContext.
const oneShotPct = 10

type readMix struct {
	sys    *system
	shapes []*shape
	seed   int64
}

func setupReadMix(seed int64, tr *tracer, _ *inputs) (instance, error) {
	sys, err := openSystem(seed, tr)
	if err != nil {
		return nil, err
	}
	shapes, err := prepareShapes(sys.eng, readMixMix)
	if err != nil {
		return nil, err
	}
	return &readMix{sys: sys, shapes: shapes, seed: seed}, nil
}

func (w *readMix) run(window time.Duration) *phase {
	ph := newPhase(w.shapes)
	b := newBinder(w.seed, w.shapes, w.sys.cfg.Years)
	pc0 := w.sys.eng.PlanCacheStats()
	runtime.GC()
	ph.begin()
	deadline := ph.start.Add(window)
	var oneShots int64
	for time.Now().Before(deadline) {
		i, fixed := b.next()
		one := b.rng.Intn(100) < oneShotPct
		if one {
			oneShots++
		}
		rec, err := readOnce(bg, w.sys.eng, w.shapes[i], fixed, one, w.sys.tr)
		rec.shape = uint8(i)
		ph.addRead(rec, err)
	}
	ph.end()
	pc1 := w.sys.eng.PlanCacheStats()
	ph.m["core.plan_cache.hit_ratio"] = ratio(float64(pc1.Hits-pc0.Hits), float64(oneShots))
	return ph
}

func (w *readMix) check() []string { return checkOracle(w.sys, w.shapes, w.seed+1, 3) }

func (w *readMix) close() {}
