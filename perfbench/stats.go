package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// quantile returns the q-quantile (nearest rank) of xs, which it sorts.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs)) + 0.5)
	return xs[min(max(i-1, 0), len(xs)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(slices.Clone(xs), 0.5) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rtSample is a reading of the Go runtime's and the process's counters.
type rtSample struct {
	at         time.Time
	cpu        time.Duration // process user + system CPU time
	allocs     uint64
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	busyCPU    float64 // CPU the Go program used: total minus idle
	mutexWait  float64
	liveHeap   uint64
	sched      *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/gc/heap/live:bytes",
	"/sched/latencies:seconds",
}

func sampleRuntime() rtSample {
	ms := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return rtSample{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:     ms[0].Value.Uint64(),
		allocBytes: ms[1].Value.Uint64(),
		gcCycles:   ms[2].Value.Uint64(),
		gcCPU:      ms[3].Value.Float64(),
		busyCPU:    ms[4].Value.Float64() - ms[5].Value.Float64(),
		mutexWait:  ms[6].Value.Float64(),
		liveHeap:   ms[7].Value.Uint64(),
		sched:      ms[8].Value.Float64Histogram(),
	}
}

// runtimeMetrics puts the runtime layer's metrics for the window from a
// to b, over ops completed operations, into m.
func runtimeMetrics(m map[string]float64, a, b rtSample, ops int64) {
	secs := b.at.Sub(a.at).Seconds()
	n := float64(ops)
	m["cpu_us_per_op"] = ratio(float64(b.cpu-a.cpu)/1e3, n)
	m["live_heap_mb"] = float64(b.liveHeap) / (1 << 20)
	m["runtime.allocs_per_op"] = ratio(float64(b.allocs-a.allocs), n)
	m["runtime.bytes_per_op"] = ratio(float64(b.allocBytes-a.allocBytes), n)
	m["runtime.gc_cpu_fraction"] = ratio(b.gcCPU-a.gcCPU, b.busyCPU-a.busyCPU)
	m["runtime.gc_cycles_per_s"] = ratio(float64(b.gcCycles-a.gcCycles), secs)
	m["runtime.mutex_wait_ms_per_s"] = ratio((b.mutexWait-a.mutexWait)*1e3, secs)
	m["runtime.sched_latency_p99_us"] = histDiffQuantile(a.sched, b.sched, 0.99) * 1e6
}

// histDiffQuantile returns the q-quantile of the observations histogram b
// holds beyond a, at the upper edge of the bucket it falls in.
func histDiffQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	diff := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		diff[i] = b.Counts[i] - a.Counts[i]
		total += diff[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(q*float64(total) + 0.5)
	var acc uint64
	for i, c := range diff {
		acc += c
		if acc >= want {
			if math.IsInf(b.Buckets[i+1], 1) {
				return b.Buckets[i]
			}
			return b.Buckets[i+1]
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// scrape reads the server's /metricsz and returns the sum of each sample
// series over all label values but the outcome label's, keyed by sample
// name with the outcome, when a sample has one, appended after a slash.
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metricsz")
	if err != nil {
		return nil, fmt.Errorf("scrape /metricsz: %w", err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parse /metricsz: %w", err)
	}
	out := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			if strings.HasSuffix(s.Name, "_bucket") {
				continue
			}
			key := s.Name
			if v, ok := s.Labels["outcome"]; ok {
				key += "/" + v
			}
			out[key] += s.Value
		}
	}
	return out, nil
}
