package mediator

import (
	"context"
	"errors"
	"fmt"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// EvaluateRecursive evaluates a recursive AIG by iterative unfolding
// (§5.5): begin with the user-supplied depth estimate, evaluate, probe
// whether any truncated context was blocked waiting on deeper unrolling
// (its original star query returns rows for some frontier instance), and
// if so double the depth and re-evaluate, up to maxDepth. It returns the
// result and the depth that sufficed.
//
// The input AIG should already have constraints compiled and multi-source
// queries decomposed; unfolding preserves both. Compiled-guard aborts at
// a depth below maxDepth trigger re-unrolling rather than an immediate
// error, since a truncated document can violate (or satisfy) a
// constraint that the full document does not; an abort that persists at
// maxDepth is reported as such.
func (m *Mediator) EvaluateRecursive(a *aig.AIG, rootInh *aig.AttrValue, estDepth, maxDepth int) (*Result, int, error) {
	return m.EvaluateRecursiveContext(context.Background(), a, rootInh, estDepth, maxDepth)
}

// EvaluateRecursiveContext is EvaluateRecursive with a caller-supplied
// context; every unfolding round's evaluation and every truncation probe
// runs under the trace ctx carries.
func (m *Mediator) EvaluateRecursiveContext(ctx context.Context, a *aig.AIG, rootInh *aig.AttrValue, estDepth, maxDepth int) (*Result, int, error) {
	if estDepth < 1 {
		estDepth = 1
	}
	if maxDepth < estDepth {
		maxDepth = estDepth
	}
	depth := estDepth
	for {
		unf, probes, err := specialize.UnfoldInfo(a, depth)
		if err != nil {
			return nil, depth, err
		}
		res, g, err := m.evaluate(ctx, unf, rootInh)
		if err != nil {
			// A guard abort at a truncated depth is not trustworthy:
			// truncation can both remove tuples a subset constraint needs
			// and hide duplicates a key constraint would reject. Keep
			// expanding; the abort is genuine only once deepening stops
			// changing the document.
			var abort *aig.AbortError
			if errors.As(err, &abort) && depth < maxDepth {
				depth *= 2
				if depth > maxDepth {
					depth = maxDepth
				}
				continue
			}
			return nil, depth, err
		}
		blocked, err := m.anyBlocked(g, probes)
		if err != nil {
			return nil, depth, err
		}
		if !blocked {
			return res, depth, nil
		}
		if depth >= maxDepth {
			return nil, depth, fmt.Errorf("mediator: recursion still expandable at depth %d (max %d); cyclic source data?", depth, maxDepth)
		}
		depth *= 2
		if depth > maxDepth {
			depth = maxDepth
		}
	}
}

// anyBlocked reports whether any instance of a truncated context would
// have expanded further: the probe rule's query returns rows for it.
func (m *Mediator) anyBlocked(g *graph, probes []specialize.TruncProbe) (bool, error) {
	if len(probes) == 0 {
		return false, nil
	}
	byType := make(map[string]specialize.TruncProbe, len(probes))
	for _, p := range probes {
		byType[p.Type] = p
	}
	blocked := false
	var scan func(c *ctxNode) error
	scan = func(c *ctxNode) error {
		if blocked {
			return nil
		}
		if probe, cut := byType[c.elem]; cut {
			if probe.Rule == nil {
				// No query to probe with: be conservative.
				if g.st.count(c.path) > 0 {
					blocked = true
				}
			} else {
				for _, inst := range g.st.all(c.path) {
					hit, err := m.probeInstance(g, probe.Rule, c, inst)
					if err != nil {
						return err
					}
					if hit {
						blocked = true
						break
					}
				}
			}
		}
		for _, ch := range c.children {
			if err := scan(ch); err != nil {
				return err
			}
		}
		return nil
	}
	if err := scan(g.root); err != nil {
		return false, err
	}
	return blocked, nil
}

// probeInstance runs the original star rule's query (or chain) for one
// frontier instance and reports whether it returns any row.
func (m *Mediator) probeInstance(g *graph, ir *aig.InhRule, c *ctxNode, inst *instance) (bool, error) {
	scope := aig.InstanceScope{Elem: c.elem, Inh: inst.inh}
	steps := ir.Chain
	if ir.Query != nil {
		steps = []*sqlmini.Query{ir.Query}
	}
	var prev sqlmini.Binding
	havePrev := false
	for _, q := range steps {
		params := make(sqlmini.Params)
		for _, name := range q.Params() {
			if name == aig.PrevParam && havePrev {
				params[name] = prev
				continue
			}
			src, ok := ir.QueryParams[name]
			if !ok {
				return false, fmt.Errorf("mediator: probe parameter $%s has no source", name)
			}
			b, err := scope.ResolveBinding(src)
			if err != nil {
				return false, err
			}
			params[name] = b
		}
		if srcs := q.Sources(); len(srcs) == 1 {
			src, err := g.reg.Get(srcs[0])
			if err != nil {
				return false, err
			}
			out, _, err := src.Exec(g.ctx, "probe", q, params, g.opts.PlanOpts)
			if err != nil {
				return false, err
			}
			prev = sqlmini.TableBinding(out)
		} else {
			// Parameter-only (or undecomposed multi-source) probe runs at
			// the mediator; the latter requires local sources.
			out, err := sqlmini.Run(q, g.reg, g.reg, g.reg, params, g.opts.PlanOpts)
			if err != nil {
				return false, err
			}
			prev = out
		}
		havePrev = true
		if len(prev.Rows) == 0 {
			return false, nil
		}
	}
	return havePrev && len(prev.Rows) > 0, nil
}
