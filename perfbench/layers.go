package main

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// meteredSource is the traced run's wrapper around a source: it counts
// and times every call that reaches the source layer while metering is
// on, and forwards the optional interfaces (TableDataProvider, Health)
// the serving stack looks for.
type meteredSource struct {
	source.Source
	on             atomic.Bool
	execNanos      atomic.Int64
	execCalls      atomic.Int64
	rowsOut        atomic.Int64
	tableDataCalls atomic.Int64
}

func (m *meteredSource) Exec(ctx context.Context, name string, q *sqlmini.Query, params sqlmini.Params, opts sqlmini.PlanOptions) (*relstore.Table, time.Duration, error) {
	if !m.on.Load() {
		return m.Source.Exec(ctx, name, q, params, opts)
	}
	t0 := time.Now()
	out, d, err := m.Source.Exec(ctx, name, q, params, opts)
	m.execNanos.Add(int64(time.Since(t0)))
	m.execCalls.Add(1)
	if out != nil {
		m.rowsOut.Add(int64(out.Len()))
	}
	return out, d, err
}

func (m *meteredSource) TableData(table string) (*relstore.Table, error) {
	p, ok := m.Source.(source.TableDataProvider)
	if !ok {
		return nil, fmt.Errorf("source %s: direct table access unavailable", m.Name())
	}
	if m.on.Load() {
		m.tableDataCalls.Add(1)
	}
	return p.TableData(table)
}

func (m *meteredSource) Healthy() error {
	if h, ok := m.Source.(source.Health); ok {
		return h.Healthy()
	}
	return nil
}

func meterSources(srcs []*meteredSource, on bool) {
	for _, s := range srcs {
		s.on.Store(on)
	}
}

// sourceMetrics writes the source.* per-layer metrics: the metered
// sources' totals per metered request.
func sourceMetrics(out *outcome, e *env, metered int) {
	var execNanos, execCalls, rowsOut, tableDataCalls int64
	for _, s := range e.sources {
		execNanos += s.execNanos.Load()
		execCalls += s.execCalls.Load()
		rowsOut += s.rowsOut.Load()
		tableDataCalls += s.tableDataCalls.Load()
	}
	n := float64(metered)
	out.metrics["source.exec_ms"] = ratio(float64(execNanos)/1e6, n)
	out.metrics["source.exec_calls"] = ratio(float64(execCalls), n)
	out.metrics["source.rows_out"] = ratio(float64(rowsOut), n)
	out.metrics["source.table_data_calls"] = ratio(float64(tableDataCalls), n)
}

// counterDelta reads a process-wide counter before and after a window.
type counterDelta struct {
	c    *obs.Counter
	base int64
}

func watch(r *obs.Registry, name string) *counterDelta {
	c := r.NewCounter(name, "")
	return &counterDelta{c: c, base: c.Value()}
}

func (d *counterDelta) delta() float64 { return float64(d.c.Value() - d.base) }

// evalSample is one traced request's span tree, summed by layer.
type evalSample struct {
	attempts    int     // mediator evaluate roots (one per unfolding attempt)
	evalMS      float64 // all evaluate roots
	discardedMS float64 // evaluate roots whose result was thrown away
	// The kept attempt's phases and its execute nodes summed by kind.
	compileMS  float64
	optimizeMS float64
	executeMS  float64
	tagMS      float64
	sqlMS      float64 // source and mediator SQL
	copyMS     float64 // copy materialization
	synMS      float64 // synthesized attributes
	inhMS      float64 // inherited attributes and choice branching
	srcQueries int     // query nodes run at a real source
	simCostSec float64 // cost(P) on the virtual clock
	renderMS   float64 // server-side render of a full document
	partialMS  float64 // server-side partial evaluation of a fragment
}

// evaluated reports whether the request ran the mediator.
func (s evalSample) evaluated() bool { return s.attempts > 0 }

// nodeKind maps a mediator node span name to its kind. Merged nodes
// carry every member's full path in their name, so only the prefix up to
// the first ':' or '+' is read.
func nodeKind(name string) string {
	name = strings.TrimPrefix(name, "node:")
	if i := strings.IndexAny(name, ":+"); i >= 0 {
		name = name[:i]
	}
	switch name {
	case "Q", "Qc", "merged":
		return "sql"
	case "mat":
		return "copy"
	case "syn":
		return "syn"
	default: // "inh", "branch"
		return "inh"
	}
}

// summarize folds one request's spans into an evalSample.
func summarize(tr *obs.Tracer) evalSample {
	var s evalSample
	var roots []*obs.Span
	for _, sp := range tr.Spans() {
		switch sp.Name() {
		case "evaluate":
			roots = append(roots, sp)
			s.evalMS += ms(sp.Duration())
		case "render":
			s.renderMS += ms(sp.Duration())
		case "eval.partial":
			s.partialMS += ms(sp.Duration())
		}
	}
	s.attempts = len(roots)
	if len(roots) == 0 {
		return s
	}
	kept := roots[len(roots)-1]
	s.discardedMS = s.evalMS - ms(kept.Duration())
	if v, ok := kept.Attr("response_time_sec"); ok {
		s.simCostSec, _ = v.(float64)
	}
	for _, ph := range tr.Children(kept) {
		d := ms(ph.Duration())
		switch ph.Name() {
		case "compile":
			s.compileMS = d
		case "optimize":
			s.optimizeMS = d
		case "tag":
			s.tagMS = d
		case "execute":
			s.executeMS = d
			for _, n := range tr.Children(ph) {
				nd := ms(n.Duration())
				switch nodeKind(n.Name()) {
				case "sql":
					s.sqlMS += nd
					if src, _ := n.Attr("source"); src != "Mediator" {
						s.srcQueries++
					}
				case "copy":
					s.copyMS += nd
				case "syn":
					s.synMS += nd
				default:
					s.inhMS += nd
				}
			}
		}
	}
	return s
}

// layerAgg accumulates traced requests' samples.
type layerAgg struct {
	evals     []evalSample // steady requests that ran the mediator
	coldEvals []evalSample // cold requests (first on a fresh view)
	// selfMS is each steady request's handler latency minus its
	// evaluation, partial evaluation and render spans.
	selfMS []float64
}

// tracedRequest runs one request under a fresh benchmark-owned tracer and
// records its layer breakdown.
func (l *layerAgg) tracedRequest(c *client, target string, noStore, cold bool) (response, evalSample) {
	tr := obs.NewTracer()
	ctx := obs.ContextWithSpan(context.Background(), tr, nil)
	r := c.do(ctx, "GET", target, noStore)
	s := summarize(tr)
	if cold {
		if s.evaluated() {
			l.coldEvals = append(l.coldEvals, s)
		}
		return r, s
	}
	l.selfMS = append(l.selfMS, ms(r.total)-s.evalMS-s.renderMS-s.partialMS)
	if s.evaluated() {
		l.evals = append(l.evals, s)
	}
	return r, s
}

// values applies f to every sample.
func values(ss []evalSample, f func(evalSample) float64) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return xs
}

// mediatorMetrics writes the mediator.* per-layer metrics: phase times
// and node-kind sums are medians over the requests that evaluated
// (steady ones where the workload has cold ones too); unfolding attempts
// and discarded time are means over every evaluating request, cold ones
// included, since that is where attempts get thrown away.
func (l *layerAgg) mediatorMetrics(m map[string]float64) {
	steady := l.evals
	if len(steady) == 0 {
		steady = l.coldEvals
	}
	all := append(append([]evalSample(nil), l.evals...), l.coldEvals...)
	m["mediator.unfold_attempts"] = mean(values(all, func(s evalSample) float64 { return float64(s.attempts) }))
	m["mediator.discarded_ms"] = mean(values(all, func(s evalSample) float64 { return s.discardedMS }))
	for name, f := range map[string]func(evalSample) float64{
		"mediator.compile_ms":     func(s evalSample) float64 { return s.compileMS },
		"mediator.optimize_ms":    func(s evalSample) float64 { return s.optimizeMS },
		"mediator.execute_ms":     func(s evalSample) float64 { return s.executeMS },
		"mediator.tag_ms":         func(s evalSample) float64 { return s.tagMS },
		"mediator.exec_sql_ms":    func(s evalSample) float64 { return s.sqlMS },
		"mediator.exec_copy_ms":   func(s evalSample) float64 { return s.copyMS },
		"mediator.exec_syn_ms":    func(s evalSample) float64 { return s.synMS },
		"mediator.exec_inh_ms":    func(s evalSample) float64 { return s.inhMS },
		"mediator.source_queries": func(s evalSample) float64 { return float64(s.srcQueries) },
		"mediator.sim_cost_s":     func(s evalSample) float64 { return s.simCostSec },
	} {
		m[name] = median(values(steady, f))
	}
	m["serve.self_ms"] = median(l.selfMS)
}
