// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the single-node engine, checks the answers, and prints
// every metric by name with its unit; the last line of standard output is
// one JSON object with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1).
//
//	bash perfbench/run.sh --workload read_mix --seed 1 --seconds 10 --trace 0
//
// spec.json describes the workloads and what each metric measures and
// should move. An untraced run sets the system up five times and measures
// each set-up for a fifth of the window; every metric is the median over
// the set-ups. A traced run measures half the window untraced and half on a second
// set-up whose store, HTTP handler and calls into each layer record
// spans; the spans are written to .bench_out/ at exit. The run exits 1
// when an output check fails and 2 when it cannot run at all.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

var bg = context.Background()

//go:embed spec.json
var specJSON []byte

type metricSpec struct {
	Name  string `json:"name"`
	Unit  string `json:"unit"`
	Layer string `json:"layer"`
}

type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// instance is one set-up of a workload.
type instance interface {
	// run measures the workload for window.
	run(window time.Duration) *phase
	// check runs the output checks that need the measured state.
	check() []string
	close()
}

type workloadDef struct {
	setup func(seed int64, tr *tracer, in *inputs) (instance, error)
	// inputs generates the benchmark's own inputs outside the timed
	// set-up; nil when the workload draws them as it runs.
	inputs func(seed int64, seconds int) (*inputs, error)
	// commits: the closed loop's operation is a commit, not a read.
	commits bool
}

var workloads = map[string]workloadDef{
	"read_mix":    {setup: setupReadMix},
	"http_read":   {setup: setupHTTPRead},
	"commit_live": {setup: setupCommitLive, inputs: commitInputs, commits: true},
}

// setupRuns is how many times an untraced run sets the system up; each
// set-up is measured for an equal slice of the window, and the run
// reports the median over the set-ups of every metric, so that one
// set-up's memory layout or one burst of outside load does not decide it.
const setupRuns = 5

func main() {
	name := flag.String("workload", "", "workload: read_mix, http_read or commit_live")
	seed := flag.Int64("seed", 1, "seed of the data, bindings and commit stream")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	def, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload read_mix|http_read|commit_live --seed N --seconds N --trace 0|1\n")
		os.Exit(2)
	}
	var sp spec
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spec.json:", err)
		os.Exit(2)
	}
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(def, *name, *seed, *seconds)
	} else {
		res, err = runUntraced(def, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	list := sp.EndToEnd
	if *traced == 1 {
		list = sp.PerLayer
	}
	if err := res.print(os.Stdout, *name, *seed, sp, list); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

// result is what one run reports.
type result struct {
	attempted, failed int64
	problems          []string
	m                 map[string]float64
	notes             []string
}

func (r *result) addPhase(ph *phase, checks []string) {
	r.attempted += int64(len(ph.reads) + len(ph.commits))
	for _, rec := range ph.reads {
		if rec.failed {
			r.failed++
		}
	}
	for _, rec := range ph.commits {
		if rec.failed {
			r.failed++
		}
	}
	r.problems = append(r.problems, ph.problems...)
	r.problems = append(r.problems, checks...)
}

func runUntraced(def workloadDef, seed int64, seconds int) (*result, error) {
	in, err := genInputs(def, seed, seconds)
	if err != nil {
		return nil, err
	}
	res := &result{m: map[string]float64{}}
	slice := time.Duration(seconds) * time.Second / setupRuns
	per := map[string][]float64{}
	for k := 0; k < setupRuns; k++ {
		t := time.Now()
		inst, err := def.setup(seed, nil, in)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		per["setup_s"] = append(per["setup_s"], time.Since(t).Seconds())
		ph := inst.run(slice)
		res.addPhase(ph, inst.check())
		inst.close()
		m := map[string]float64{}
		endToEnd(m, ph, def.commits)
		for name, v := range m {
			per[name] = append(per[name], v)
		}
		runtime.GC()
	}
	for name, vs := range per {
		res.m[name] = median(vs)
	}
	return res, nil
}

func genInputs(def workloadDef, seed int64, seconds int) (*inputs, error) {
	if def.inputs == nil {
		return nil, nil
	}
	in, err := def.inputs(seed, seconds)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	return in, nil
}

// runTraced measures half the window untraced and half traced, on two
// set-ups from the same seed, and derives the per-layer metrics.
func runTraced(def workloadDef, name string, seed int64, seconds int) (*result, error) {
	in, err := genInputs(def, seed, seconds)
	if err != nil {
		return nil, err
	}
	half := time.Duration(seconds) * time.Second / 2
	res := &result{m: map[string]float64{}}

	plain, err := def.setup(seed, nil, in)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	phA := plain.run(half)
	res.addPhase(phA, plain.check())
	plain.close()
	plain = nil
	runtime.GC()

	tr := newTracer()
	traced, err := def.setup(seed, tr, in)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	phB := traced.run(half)
	res.addPhase(phB, traced.check())
	traced.close()

	// End-to-end and runtime metrics come from the untraced half; the
	// workload's own counters and the spans from the traced half.
	endToEnd(res.m, phA, def.commits)
	for k, v := range phB.m {
		res.m[k] = v
	}
	spans := tr.snapshot()
	res.notes = layerMetrics(res.m, phB, phA, spans, def.commits)
	res.m["fail_ratio"] = ratio(float64(res.failed), float64(res.attempted))
	res.m["bench.trace_overhead"] = ratio(opMedian(phB, def.commits), opMedian(phA, def.commits)) - 1
	res.problems = append(res.problems, sameReads(phA, phB, def.commits)...)
	// One file per workload, replaced by each traced run: the spans of a
	// run take tens of megabytes even compressed.
	path := filepath.Join(".bench_out", "trace-"+name+".jsonl.gz")
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.notes = append(res.notes, fmt.Sprintf("spans: %d written to %s", len(spans), path))
	return res, nil
}

// print writes every measured metric with its unit, the notes and the
// output checks, then the result line with the metrics in list.
func (r *result) print(f *os.File, name string, seed int64, sp spec, list []metricSpec) error {
	units := map[string]string{}
	for _, m := range slices.Concat(sp.EndToEnd, sp.PerLayer) {
		units[m.Name] = m.Unit
	}
	fmt.Fprintf(f, "perfbench %s seed %d: %d operations attempted, %d failed\n", name, seed, r.attempted, r.failed)
	keys := make([]string, 0, len(r.m))
	for k := range r.m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(f, "  %-32s %14.4f %s\n", k, r.m[k], units[k])
	}
	for _, n := range r.notes {
		fmt.Fprintln(f, "  "+n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(f, "CHECK FAILED:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range list {
		v, ok := r.m[m.Name]
		if !ok && m.Layer == "" {
			return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		// A per-layer metric of a layer this workload does not exercise
		// reads 0.
		metrics[m.Name] = value{v, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(line))
	return err
}
