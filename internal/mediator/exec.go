package mediator

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// Mediator evaluates specialized AIGs against a registry of data sources.
type Mediator struct {
	reg  *source.Registry
	opts Options
}

// New creates a mediator over the given sources.
func New(reg *source.Registry, opts Options) *Mediator {
	return &Mediator{reg: reg, opts: opts}
}

// exec is the runtime state of one evaluation.
type exec struct {
	g        *graph
	ctx      context.Context // carries the execute-phase span for node parenting
	rootInh  *aig.AttrValue
	mu       sync.Mutex
	firstErr error
	// wake, set under mu by the dynamic scheduler, is called after every
	// node completion to re-examine readiness.
	wake func()
	// tr/execSpan, when tracing, parent one span per node execution under
	// the "execute" phase span.
	tr       *obs.Tracer
	execSpan *obs.Span
}

func (x *exec) fail(err error) {
	x.mu.Lock()
	if x.firstErr == nil {
		x.firstErr = err
	}
	x.mu.Unlock()
}

// Evaluate runs the four phases of Fig. 5 — the AIG is assumed
// pre-processed (constraints compiled, multi-source queries decomposed,
// recursion unfolded): compile the dependency graph, optimize it (Merge +
// Schedule), execute the plan with one worker per source, and tag the
// cached tables into the document.
func (m *Mediator) Evaluate(a *aig.AIG, rootInh *aig.AttrValue) (*Result, error) {
	return m.EvaluateContext(context.Background(), a, rootInh)
}

// EvaluateContext is Evaluate with a caller-supplied context. A tracer
// carried by ctx (obs.ContextWithSpan) takes precedence over
// Options.Tracer, so one mediator instance serves many traced requests
// without per-request reconfiguration; ctx also flows into every source
// call for cancellation.
func (m *Mediator) EvaluateContext(ctx context.Context, a *aig.AIG, rootInh *aig.AttrValue) (*Result, error) {
	res, _, err := m.evaluate(ctx, a, rootInh)
	return res, err
}

func (m *Mediator) evaluate(ctx context.Context, a *aig.AIG, rootInh *aig.AttrValue) (*Result, *graph, error) {
	tr, parent := obs.SpanFromContext(ctx)
	if tr == nil {
		tr = m.opts.Tracer
	}
	start := time.Now()
	root := tr.StartSpan("evaluate", parent)
	res, g, err := m.evaluatePhases(ctx, a, rootInh, tr, root)
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	if res != nil {
		res.Report.WallSec = time.Since(start).Seconds()
		root.SetAttr("response_time_sec", res.Report.ResponseTimeSec)
	}
	root.End()
	return res, g, err
}

// evaluatePhases runs the four Fig. 5 phases under the given root span,
// recording one child span and one wall-clock timing per phase.
func (m *Mediator) evaluatePhases(ctx context.Context, a *aig.AIG, rootInh *aig.AttrValue, tr *obs.Tracer, root *obs.Span) (*Result, *graph, error) {
	phaseSec := make(map[string]float64, 4)

	sp, t0 := tr.StartSpan("compile", root), time.Now()
	g, err := compile(obs.ContextWithSpan(ctx, tr, sp), a, m.reg, m.opts)
	phaseSec["compile"] = time.Since(t0).Seconds()
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	if !isAcyclic(g.nodes) {
		sp.End()
		return nil, nil, fmt.Errorf("mediator: dependency graph is cyclic")
	}
	sp.SetAttr("nodes", len(g.nodes)).SetAttr("edges", len(g.edges)).End()

	sp, t0 = tr.StartSpan("optimize", root), time.Now()
	mergedGroups := 0
	if m.opts.Merge {
		mergedGroups = g.mergeQueries()
	}
	p := schedule(g.nodes, m.opts.Net, m.opts.Schedule)
	phaseSec["optimize"] = time.Since(t0).Seconds()
	sp.SetAttr("merged_groups", mergedGroups).SetAttr("nodes", len(g.nodes)).End()

	if rootInh == nil {
		rootInh = aig.NewAttrValue(a.Inh[a.DTD.Root])
	}
	sp, t0 = tr.StartSpan("execute", root), time.Now()
	x := &exec{g: g, ctx: obs.ContextWithSpan(ctx, tr, sp), rootInh: rootInh, tr: tr, execSpan: sp}
	executed, err := x.run(p)
	phaseSec["execute"] = time.Since(t0).Seconds()
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	p = executed
	g.executed = executed

	sp, t0 = tr.StartSpan("tag", root), time.Now()
	doc, err := g.tag()
	phaseSec["tag"] = time.Since(t0).Seconds()
	sp.End()
	if err != nil {
		return nil, nil, err
	}

	rep := Report{
		ResponseTimeSec:  costOf(g.nodes, p, m.opts.Net, measuredInputs(m.opts.Net)),
		MergedGroups:     mergedGroups,
		NodeCount:        len(g.nodes),
		EdgeCount:        len(g.edges),
		PerSourceBusySec: make(map[string]float64),
		PhaseSec:         phaseSec,
	}
	for _, n := range g.nodes {
		rep.PerSourceBusySec[n.source] += n.evalSec
		if n.kind == nodeQuery && n.source != MediatorSource {
			rep.SourceQueryCount++
		}
	}
	for _, e := range g.edges {
		if e.from.source != e.to.source {
			rep.ShippedBytes += e.bytes
		}
	}
	return &Result{Doc: doc, Report: rep}, g, nil
}

// run executes the plan — one worker goroutine per source — and returns
// the schedule as executed (identical to p for static schedules; the
// recorded dispatch order under dynamic scheduling).
func (x *exec) run(p *plan) (*plan, error) {
	if x.g.opts.Schedule == ScheduleDynamic {
		return x.runDynamic(p)
	}
	var wg sync.WaitGroup
	for _, seq := range p.order {
		wg.Add(1)
		go func(seq []*node) {
			defer wg.Done()
			for _, n := range seq {
				x.waitDeps(n)
				x.runNode(n)
			}
		}(seq)
	}
	wg.Wait()
	return p, x.firstErr
}

// runDynamic dispatches per source: whenever any of a source's pending
// nodes has all dependencies finished, the highest-priority ready node
// runs next (§5.5's dynamic scheduling). The dispatch order is recorded
// and returned for cost reporting.
func (x *exec) runDynamic(p *plan) (*plan, error) {
	level := levels(x.g.nodes, x.g.opts.Net)
	cond := sync.NewCond(&x.mu)
	x.wake = func() {
		cond.Broadcast()
	}
	executed := &plan{order: make(map[string][]*node, len(p.order))}
	var wg sync.WaitGroup
	for src, seq := range p.order {
		wg.Add(1)
		go func(src string, pending []*node) {
			defer wg.Done()
			remaining := append([]*node(nil), pending...)
			for len(remaining) > 0 {
				x.mu.Lock()
				var pick *node
				pickAt := -1
				for {
					if x.firstErr != nil {
						break
					}
					for i, n := range remaining {
						ready := true
						for _, e := range n.in {
							if !e.from.finished {
								ready = false
								break
							}
						}
						if ready && (pick == nil || level[n] > level[pick]) {
							pick, pickAt = n, i
						}
					}
					if pick != nil {
						break
					}
					cond.Wait()
				}
				failed := x.firstErr != nil
				x.mu.Unlock()
				if failed {
					// Drain: mark everything finished so waiters unblock.
					for _, n := range remaining {
						x.mu.Lock()
						n.finished = true
						x.mu.Unlock()
						close(n.done)
						cond.Broadcast()
					}
					return
				}
				remaining = append(remaining[:pickAt], remaining[pickAt+1:]...)
				x.runNode(pick)
				x.mu.Lock()
				executed.order[src] = append(executed.order[src], pick)
				x.mu.Unlock()
				cond.Broadcast()
			}
		}(src, seq)
	}
	wg.Wait()
	return executed, x.firstErr
}

func (x *exec) waitDeps(n *node) {
	for _, e := range n.in {
		<-e.from.done
	}
}

// nodeSpan starts the span of one node execution (nil when untraced). A
// merged node's name lists every member's path, so its span is named
// just "node:merged" and carries the members as attributes.
func (x *exec) nodeSpan(n *node) *obs.Span {
	if x.tr == nil {
		return nil
	}
	if n.items == nil {
		return x.tr.StartSpan("node:"+n.name, x.execSpan)
	}
	names := make([]string, len(n.items))
	for i, item := range n.items {
		names[i] = item.name
	}
	return x.tr.StartSpan("node:merged", x.execSpan).
		SetAttr("members", len(n.items)).
		SetAttr("member_names", strings.Join(names, "+"))
}

// runNode executes one node whose dependencies are satisfied.
func (x *exec) runNode(n *node) {
	sp := x.nodeSpan(n)
	start := time.Now()
	defer func() {
		if sp != nil {
			// Estimates next to actuals: the span is the unit of
			// estimate-vs-actual feedback for cost-model calibration.
			sp.SetAttr("source", n.source).
				SetAttr("est_cost_sec", n.estCost).
				SetAttr("est_out_bytes", n.estOutBytes).
				SetAttr("eval_sec", n.evalSec).
				SetAttr("wall_sec", time.Since(start).Seconds()).
				SetAttr("out_rows", n.outRows).
				SetAttr("out_bytes", n.outBytes)
			if n.err != nil {
				sp.SetAttr("error", n.err.Error())
			}
			sp.End()
		}
		x.mu.Lock()
		n.finished = true
		wake := x.wake
		x.mu.Unlock()
		close(n.done)
		if wake != nil {
			wake()
		}
	}()
	x.mu.Lock()
	failed := x.firstErr != nil
	x.mu.Unlock()
	if failed {
		sp.SetAttr("skipped", true)
		return
	}
	var err error
	switch n.kind {
	case nodeQuery:
		// Source calls made for this node parent under its span.
		err = x.runQueryNode(obs.ContextWithSpan(x.ctx, x.tr, sp), n)
	default:
		rows := 0
		if n.runLocal != nil {
			rows, err = n.runLocal(x)
		}
		// Local work is charged on the virtual clock at the mediator's
		// application-code rate, not wall time, for determinism.
		n.evalSec = float64(rows) * x.g.opts.Net.MediatorRowCostSec
		n.outRows = rows
	}
	if err != nil {
		n.err = err
		x.fail(err)
	}
}

// runQueryNode executes every part of a (possibly merged) query node at
// its source, in dependency order. Merged nodes interleave absorbed local
// tasks (the inlined key-path combination) between their query parts.
func (x *exec) runQueryNode(ctx context.Context, n *node) error {
	if n.items != nil {
		for _, item := range n.items {
			if item.local != nil {
				rows, err := item.local(x)
				if err != nil {
					return err
				}
				n.evalSec += float64(rows) * x.g.opts.Net.MediatorRowCostSec
				continue
			}
			if item.pt == nil {
				continue // absorbed barrier: nothing to execute
			}
			if err := x.runPart(ctx, n, item.pt); err != nil {
				return err
			}
		}
		// Ship to each consumer only the parts it actually consumes.
		byOrigin := make(map[*node]int)
		for _, item := range n.items {
			if item.pt != nil && item.pt.out != nil && item.pt.origin != nil {
				byOrigin[item.pt.origin] += item.pt.out.ByteSize()
			}
		}
		for _, e := range n.out {
			if e.bytes != 0 {
				continue
			}
			if len(e.producers) == 0 {
				e.bytes = n.outBytes
				continue
			}
			for _, p := range e.producers {
				e.bytes += byOrigin[p]
			}
		}
		return nil
	}
	for _, pt := range n.parts {
		if err := x.runPart(ctx, n, pt); err != nil {
			return err
		}
	}
	for _, e := range n.out {
		if e.bytes == 0 {
			e.bytes = n.outBytes
		}
	}
	return nil
}

// runPart executes one query part at the node's source.
func (x *exec) runPart(ctx context.Context, n *node, pt *part) error {
	params, paramBytes, err := x.bindParams(pt)
	if err != nil {
		return fmt.Errorf("mediator: %s: %v", pt.name, err)
	}
	x.recordInputBytes(n, paramBytes)

	opts := x.g.opts.PlanOpts
	opts.ParamCards = make(map[string]int, len(params))
	for name, b := range params {
		opts.ParamCards[name] = len(b.Rows) + 1
	}

	var out sqlmini.Binding
	var dur time.Duration
	if n.source == MediatorSource {
		start := time.Now()
		out, err = sqlmini.Run(pt.rw.query, x.g.reg, x.g.reg, x.g.reg, params, opts)
		dur = time.Since(start)
	} else {
		src, gerr := x.g.reg.Get(n.source)
		if gerr != nil {
			return gerr
		}
		var t *relstore.Table
		t, dur, err = src.Exec(ctx, pt.name, pt.rw.query, params, opts)
		if err == nil {
			out = sqlmini.TableBinding(t)
		}
	}
	if err != nil {
		return fmt.Errorf("mediator: %s: %v", pt.name, err)
	}
	pt.out = &out
	n.evalSec += dur.Seconds()
	n.outRows += len(out.Rows)
	n.outBytes += out.ByteSize()
	return nil
}

// recordInputBytes attributes the parameter-table volume (shipped
// Mediator -> source as temporary tables) to the incoming edges from
// mediator-local producers, split evenly among them.
func (x *exec) recordInputBytes(n *node, paramBytes int) {
	if paramBytes == 0 {
		return
	}
	var locals []*edge
	for _, e := range n.in {
		if e.from.source == MediatorSource {
			locals = append(locals, e)
		}
	}
	if len(locals) == 0 {
		return
	}
	share := paramBytes / len(locals)
	for _, e := range locals {
		e.bytes += share
	}
}

// bindParams builds the runtime bindings of one part's parameter tables
// from the store (and chain predecessors), returning the total volume of
// the store-derived tables for communication accounting.
func (x *exec) bindParams(pt *part) (sqlmini.Params, int, error) {
	g := x.g
	params := make(sqlmini.Params, len(pt.rw.specs))
	for _, spec := range pt.rw.specs {
		switch spec.kind {
		case paramPrev:
			if pt.prev == nil || pt.prev.out == nil {
				return nil, 0, fmt.Errorf("chain step has no predecessor output")
			}
			params[spec.name] = *pt.prev.out
		case paramParentIDs:
			var rows []relstore.Tuple
			for _, inst := range g.parentInstances(pt.parentCtx, pt.branch) {
				rows = append(rows, relstore.Tuple{relstore.Int(int64(inst.id))})
			}
			params[spec.name] = sqlmini.Binding{Schema: spec.schema, Rows: rows}
		case paramScalars, paramCollection:
			var rows []relstore.Tuple
			for _, inst := range g.parentInstances(pt.parentCtx, pt.branch) {
				scope, err := g.instanceScope(pt.parentCtx, inst)
				if err != nil {
					return nil, 0, err
				}
				b, err := scope.ResolveBinding(spec.src)
				if err != nil {
					return nil, 0, err
				}
				idVal := relstore.Int(int64(inst.id))
				for _, r := range b.Rows {
					rows = append(rows, append(relstore.Tuple{idVal}, r...))
				}
			}
			params[spec.name] = sqlmini.Binding{Schema: spec.schema, Rows: rows}
		}
	}
	total := 0
	for name, b := range params {
		if name != aig.PrevParam {
			total += b.ByteSize()
		}
	}
	return params, total, nil
}
