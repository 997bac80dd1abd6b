package main

import (
	"runtime"
	"time"

	"github.com/aigrepro/aig/internal/obs"
)

// window brackets a run's measured part: runtime allocation and GC work
// and the process-wide layer counters are read at its start and end.
type window struct {
	start      time.Time
	rt         runtimeSnap
	inserts    *counterDelta
	scanned    *counterDelta
	srcQueries *counterDelta
	walBytes   *counterDelta
}

func openWindow() *window {
	// Set-up and oracle garbage is collected before the window, so the
	// window pays only for its own allocations.
	runtime.GC()
	return &window{
		inserts:    watch(obs.Default, "aig_relstore_inserts_total"),
		scanned:    watch(obs.Default, "aig_sqlmini_rows_scanned_total"),
		srcQueries: watch(obs.Default, "aig_source_queries_total"),
		walBytes:   watch(obs.Default, "aig_relstore_wal_bytes_total"),
		rt:         snapRuntime(),
		start:      time.Now(),
	}
}

// over reports whether the run should stop before starting unit n of
// its work: after the time window, or at the fixed limit when one is set.
// The first unit always runs.
func (w *window) over(cfg config, n int) bool {
	if cfg.limit > 0 {
		return n >= cfg.limit
	}
	return n > 0 && time.Since(w.start) >= cfg.window
}

// overPass is over for whole passes of lastPass each: another pass starts
// only if it would end inside the window, and with a limit the run is a
// single pass. The first pass always runs.
func (w *window) overPass(cfg config, pass int, lastPass time.Duration) bool {
	if cfg.limit > 0 {
		return pass >= 1
	}
	return pass > 0 && time.Since(w.start)+lastPass > cfg.window
}

// close records the window's per-request runtime and layer figures over
// reqs requests, and its deterministic counts.
func (w *window) close(out *outcome, reqs int) {
	rt := snapRuntime()
	n := float64(reqs)
	out.metrics["alloc_mb_per_req"] = ratio(float64(rt.totalAlloc-w.rt.totalAlloc)/1e6, n)
	out.metrics["runtime.mallocs_k"] = ratio(float64(rt.mallocs-w.rt.mallocs)/1e3, n)
	out.metrics["runtime.gc_cpu_ms"] = ratio((rt.gcCPUSec-w.rt.gcCPUSec)*1e3, n)
	out.metrics["relstore.inserts_per_req"] = ratio(w.inserts.delta(), n)
	out.metrics["sqlmini.rows_scanned"] = ratio(w.scanned.delta(), n)
	out.counts["source_queries"] = int64(w.srcQueries.delta())
	out.counts["inserts"] = int64(w.inserts.delta())
	out.counts["wal_bytes"] = int64(w.walBytes.delta())
	out.counts["rows_scanned"] = int64(w.scanned.delta())
}

func newOutcome() *outcome {
	out := &outcome{metrics: make(map[string]float64), counts: make(map[string]int64), samples: make(map[string][]float64)}
	for _, s := range perLayer {
		out.metrics[s.name] = 0
	}
	return out
}

// overheadPct compares traced and untraced request latencies of one run.
func overheadPct(traced, untraced []float64) float64 {
	u := median(untraced)
	if u == 0 || len(traced) == 0 {
		return 0
	}
	return (median(traced)/u - 1) * 100
}
