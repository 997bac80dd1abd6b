package mediator

import (
	"fmt"
	"sort"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// sourceRowCostSec converts a source engine's abstract cost units
// (tuples processed) to seconds, calibrating eval_cost estimates against
// the in-process engine.
const sourceRowCostSec = 2e-6

// buildEdge compiles the materialization of child context ch from parent
// context c under inherited rule ir. branch > 0 restricts the parent
// instances to a choice alternative; condSplit is that production's split
// node.
func (g *graph) buildEdge(c, ch *ctxNode, ir *aig.InhRule, branch int, star bool) error {
	return g.buildEdgeFull(c, ch, ir, branch, nil, star)
}

func (g *graph) buildBranchEdge(c, ch *ctxNode, ir *aig.InhRule, branch int, condSplit *node) error {
	return g.buildEdgeFull(c, ch, ir, branch, condSplit, false)
}

func (g *graph) buildEdgeFull(c, ch *ctxNode, ir *aig.InhRule, branch int, condSplit *node, star bool) error {
	parentRows := g.estRows[c.path]
	if parentRows == 0 {
		parentRows = 1
	}

	mat := g.newNode(nodeLocal, MediatorSource, "mat:"+ch.path)
	g.addEdge(mat, g.inhDone[ch.path], 0)
	if condSplit != nil {
		g.addEdge(condSplit, mat, 8*parentRows)
	}

	// Pure copy edges (and ruleless edges) are mediator-local.
	if ir == nil || !ir.IsQuery() {
		g.estRows[ch.path] = parentRows
		if star {
			if ir == nil || len(ir.Copies) != 1 {
				return fmt.Errorf("mediator: star edge %s needs a query or one collection copy", ch.path)
			}
			// Iterating a collection member multiplies instances.
			g.estRows[ch.path] = parentRows * 4
		}
		g.addEdge(g.inhDone[c.path], mat, 0)
		if ir != nil {
			for _, cp := range ir.Copies {
				dep, err := g.depNodeFor(c, cp.Src)
				if err != nil {
					return err
				}
				g.addEdge(dep, mat, 0)
			}
		}
		elided := g.opts.CopyElim && isPureProjection(ir)
		mat.estCost = localCost(g.opts.Net, g.estRows[ch.path], elided)
		g.setCopyMat(mat, c, ch, ir, branch, star, elided)
		return nil
	}

	// Query edges: one graph node per (decomposed) chain step.
	steps := ir.Chain
	if ir.Query != nil {
		steps = []*sqlmini.Query{ir.Query}
	}
	var prevPart *part
	var prevNode *node
	var prevSchema relstore.Schema
	for k, q := range steps {
		var prevForRewrite relstore.Schema
		if k > 0 {
			prevForRewrite = prevSchema
		}
		rw, err := rewriteSetOriented(q, ir.QueryParams, g.attrSchema, prevForRewrite)
		if err != nil {
			return fmt.Errorf("mediator: edge %s step %d: %v", ch.path, k+1, err)
		}
		srcName := MediatorSource
		if srcs := rw.query.Sources(); len(srcs) == 1 {
			srcName = srcs[0]
		} else if len(srcs) > 1 {
			return fmt.Errorf("mediator: edge %s step %d still references %v; decompose first", ch.path, k+1, srcs)
		}
		resolved, err := sqlmini.Resolve(rw.query, g.reg, rw.paramSchemas())
		if err != nil {
			return fmt.Errorf("mediator: edge %s step %d: %v", ch.path, k+1, err)
		}

		name := fmt.Sprintf("Q:%s", ch.path)
		if len(steps) > 1 {
			name = fmt.Sprintf("Q:%s/%d", ch.path, k+1)
		}
		qn := g.newNode(nodeQuery, srcName, name)
		pt := &part{name: name, rw: rw, origin: qn, parentCtx: c, branch: branch, prev: prevPart}
		qn.parts = []*part{pt}

		// Estimates via the source costing API.
		est := g.estimatePart(srcName, rw, c, prevPart)
		pt.estRows, pt.estBytes, pt.estCost = est.Rows, est.Bytes, est.Cost*sourceRowCostSec
		qn.estCost = pt.estCost
		qn.estOutBytes = est.Bytes

		// Dependencies from parameter tables.
		for _, spec := range rw.specs {
			switch spec.kind {
			case paramPrev:
				g.addEdge(prevNode, qn, prevPart.estBytes)
			case paramParentIDs:
				g.addEdge(g.inhDone[c.path], qn, 8*parentRows)
			default:
				dep, err := g.depNodeFor(c, spec.src)
				if err != nil {
					return err
				}
				rows := parentRows
				if spec.kind == paramCollection {
					rows = parentRows * 4
				}
				g.addEdge(dep, qn, rows*estSchemaBytes(spec.schema))
			}
		}
		if condSplit != nil {
			g.addEdge(condSplit, qn, 8*parentRows)
		}

		prevPart, prevNode, prevSchema = pt, qn, resolved.Output
	}

	// Materialize the final step's output into child instances.
	g.addEdge(prevNode, mat, prevPart.estBytes)
	g.addEdge(g.inhDone[c.path], mat, 0) // parent inh values for copy fills
	childRows := parentRows
	if star {
		childRows = prevPart.estRows
	}
	g.estRows[ch.path] = childRows
	mat.estCost = localCost(g.opts.Net, childRows, false)
	g.setQueryMat(mat, c, ch, ir, branch, star, prevPart)
	return nil
}

func estSchemaBytes(s relstore.Schema) float64 {
	b := 0.0
	for _, c := range s {
		if c.Kind == relstore.KindInt {
			b += 8
		} else {
			b += 16
		}
	}
	return b
}

func localCost(net NetModel, rows float64, elided bool) float64 {
	if elided {
		return 0
	}
	return rows * net.MediatorRowCostSec
}

// isPureProjection reports whether a copy rule only projects scalar
// members of the parent's inherited attribute — the copy chains that copy
// elimination (§4) elides.
func isPureProjection(ir *aig.InhRule) bool {
	if ir == nil {
		return true
	}
	if ir.IsQuery() {
		return false
	}
	for _, cp := range ir.Copies {
		if cp.Src.Side != aig.InhSide {
			return false
		}
	}
	return true
}

// estimatePart asks the owning source for eval_cost and size estimates of
// a rewritten query (§5.2's costing API).
func (g *graph) estimatePart(srcName string, rw *rewritten, parentCtx *ctxNode, prev *part) sourceEstimate {
	parentRows := g.estRows[parentCtx.path]
	if parentRows == 0 {
		parentRows = 1
	}
	opts := g.opts.PlanOpts
	opts.ParamCards = make(map[string]int, len(rw.specs))
	for _, spec := range rw.specs {
		switch spec.kind {
		case paramPrev:
			if prev != nil {
				opts.ParamCards[spec.name] = int(prev.estRows) + 1
			}
		case paramCollection:
			opts.ParamCards[spec.name] = int(parentRows*4) + 1
		default:
			opts.ParamCards[spec.name] = int(parentRows) + 1
		}
	}
	if srcName == MediatorSource {
		// Parameter-only query; estimate with a blank source.
		return sourceEstimate{Rows: parentRows, Bytes: parentRows * 16, Cost: parentRows}
	}
	src, err := g.reg.Get(srcName)
	if err != nil {
		return sourceEstimate{Rows: parentRows, Bytes: parentRows * 16, Cost: parentRows}
	}
	est, err := src.Estimate(g.ctx, rw.query, rw.paramSchemas(), opts)
	if err != nil {
		return sourceEstimate{Rows: parentRows, Bytes: parentRows * 16, Cost: parentRows}
	}
	return sourceEstimate{Rows: est.Rows, Bytes: est.Bytes, Cost: est.Cost}
}

type sourceEstimate struct {
	Rows, Bytes, Cost float64
}

// buildCond compiles a choice production's condition query and branch
// split.
func (g *graph) buildCond(c *ctxNode, r *aig.Rule) (*node, error) {
	rw, err := rewriteSetOriented(r.Cond, r.CondParams, g.attrSchema, nil)
	if err != nil {
		return nil, fmt.Errorf("mediator: condition of %s: %v", c.elem, err)
	}
	srcName := MediatorSource
	if srcs := rw.query.Sources(); len(srcs) == 1 {
		srcName = srcs[0]
	} else if len(srcs) > 1 {
		return nil, fmt.Errorf("mediator: condition of %s references %v; decompose first", c.elem, srcs)
	}
	if _, err := sqlmini.Resolve(rw.query, g.reg, rw.paramSchemas()); err != nil {
		return nil, fmt.Errorf("mediator: condition of %s: %v", c.elem, err)
	}
	qn := g.newNode(nodeQuery, srcName, "Qc:"+c.path)
	pt := &part{name: qn.name, rw: rw, parentCtx: c}
	pt.origin = qn
	qn.parts = []*part{pt}
	est := g.estimatePart(srcName, rw, c, nil)
	pt.estRows, pt.estBytes, pt.estCost = est.Rows, est.Bytes, est.Cost*sourceRowCostSec
	qn.estCost, qn.estOutBytes = pt.estCost, est.Bytes
	for _, spec := range rw.specs {
		switch spec.kind {
		case paramParentIDs:
			g.addEdge(g.inhDone[c.path], qn, 8*g.estRows[c.path])
		case paramPrev:
		default:
			dep, err := g.depNodeFor(c, spec.src)
			if err != nil {
				return nil, err
			}
			g.addEdge(dep, qn, g.estRows[c.path]*estSchemaBytes(spec.schema))
		}
	}

	split := g.newNode(nodeLocal, MediatorSource, "branch:"+c.path)
	split.estCost = localCost(g.opts.Net, g.estRows[c.path], false)
	g.addEdge(qn, split, pt.estBytes)
	nBranches := len(c.children)
	split.runLocal = func(x *exec) (int, error) {
		out := pt.out
		if out == nil {
			return 0, fmt.Errorf("mediator: condition result of %s missing", c.path)
		}
		if out.Schema.ColumnIndex(ParentCol) != 0 || len(out.Schema) < 2 {
			return 0, fmt.Errorf("mediator: condition result of %s lacks a leading %s column", c.path, ParentCol)
		}
		byID := make(map[int]*instance)
		for _, inst := range g.st.all(c.path) {
			byID[inst.id] = inst
		}
		for _, row := range out.Rows {
			id := int(row[0].AsInt())
			v := row[1]
			if v.Kind() != relstore.KindInt {
				return 0, fmt.Errorf("mediator: condition of %s returned non-integer %s", c.path, v)
			}
			b := int(v.AsInt())
			if b < 1 || b > nBranches {
				return 0, fmt.Errorf("mediator: condition of %s returned %d, want 1..%d", c.path, b, nBranches)
			}
			inst, ok := byID[id]
			if !ok {
				return 0, fmt.Errorf("mediator: condition of %s references unknown parent %d", c.path, id)
			}
			if inst.branch == 0 {
				inst.branch = b
			}
		}
		for _, inst := range g.st.all(c.path) {
			if inst.branch == 0 {
				return 0, fmt.Errorf("mediator: condition of %s returned no row for an instance", c.path)
			}
		}
		return len(out.Rows), nil
	}
	return split, nil
}

// parentInstances lists the parent instances an edge applies to.
func (g *graph) parentInstances(c *ctxNode, branch int) []*instance {
	all := g.st.all(c.path)
	if branch == 0 {
		return all
	}
	out := make([]*instance, 0, len(all))
	for _, inst := range all {
		if inst.branch == branch {
			out = append(out, inst)
		}
	}
	return out
}

// setCopyMat installs the materialization body for a copy edge.
func (g *graph) setCopyMat(mat *node, c, ch *ctxNode, ir *aig.InhRule, branch int, star, elided bool) {
	decl := g.a.Inh[ch.elem]
	mat.runLocal = func(x *exec) (int, error) {
		rows := 0
		for _, parent := range g.parentInstances(c, branch) {
			scope, err := g.instanceScope(c, parent)
			if err != nil {
				return rows, err
			}
			if star {
				b, err := scope.ResolveBinding(ir.Copies[0].Src)
				if err != nil {
					return rows, err
				}
				sorted := make([]relstore.Tuple, len(b.Rows))
				copy(sorted, b.Rows)
				sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 })
				names := decl.ScalarSchema().Names()
				for _, row := range sorted {
					inh := aig.NewAttrValue(decl)
					if err := inh.BindScalarsFromRow(names, b.Schema, row); err != nil {
						return rows, err
					}
					g.st.add(ch.path, parent.id, inh)
					rows++
				}
				continue
			}
			inh := aig.NewAttrValue(decl)
			if ir != nil {
				if err := g.a.EvalCopiesFor(ir, inh, scope); err != nil {
					return rows, err
				}
			}
			g.st.add(ch.path, parent.id, inh)
			rows++
		}
		if elided {
			return 0, nil // copy elimination: no mediator copying charged
		}
		return rows, nil
	}
}

// setQueryMat installs the materialization body for a query edge: the
// final chain step's output rows become child instances (star), the
// child's collection member (TargetCollection), or the child's scalar
// members (single-row rules).
func (g *graph) setQueryMat(mat *node, c, ch *ctxNode, ir *aig.InhRule, branch int, star bool, last *part) {
	decl := g.a.Inh[ch.elem]
	mat.runLocal = func(x *exec) (int, error) {
		out := last.out
		if out == nil {
			return 0, fmt.Errorf("mediator: query result for %s missing", ch.path)
		}
		parentIdx := out.Schema.ColumnIndex(ParentCol)
		if parentIdx != 0 {
			return 0, fmt.Errorf("mediator: result for %s lacks leading %s column", ch.path, ParentCol)
		}
		dataSchema := out.Schema[1:]
		byParent := make(map[int][]relstore.Tuple)
		for _, row := range out.Rows {
			id := int(row[0].AsInt())
			byParent[id] = append(byParent[id], row[1:])
		}
		names := decl.ScalarSchema().Names()
		rows := 0
		for _, parent := range g.parentInstances(c, branch) {
			data := byParent[parent.id]
			sorted := make([]relstore.Tuple, len(data))
			copy(sorted, data)
			sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 })

			scope, err := g.instanceScope(c, parent)
			if err != nil {
				return rows, err
			}
			applyCopies := func(inh *aig.AttrValue) error {
				for _, cp := range ir.Copies {
					v, err := scope.ResolveBinding(cp.Src)
					if err != nil {
						return err
					}
					if len(v.Rows) > 0 && len(v.Rows[0]) == 1 {
						if err := inh.SetScalar(cp.TargetMember, v.Rows[0][0]); err != nil {
							return err
						}
					}
				}
				return nil
			}

			if star {
				for _, row := range sorted {
					inh := aig.NewAttrValue(decl)
					if err := inh.BindScalarsFromRow(names, dataSchema, row); err != nil {
						return rows, err
					}
					if err := applyCopies(inh); err != nil {
						return rows, err
					}
					g.st.add(ch.path, parent.id, inh)
					rows++
				}
				continue
			}

			inh := aig.NewAttrValue(decl)
			if ir.TargetCollection != "" {
				if err := inh.SetCollection(ir.TargetCollection, sorted); err != nil {
					return rows, err
				}
			} else if len(sorted) > 0 {
				if err := inh.BindScalarsFromRow(names, dataSchema, sorted[0]); err != nil {
					return rows, err
				}
			}
			if err := applyCopies(inh); err != nil {
				return rows, err
			}
			g.st.add(ch.path, parent.id, inh)
			rows++
		}
		return rows, nil
	}
}

// instanceScope builds the rule-evaluation scope of one parent instance:
// its inherited attribute plus the synthesized attributes of its children
// (which double as the siblings of any child being computed).
func (g *graph) instanceScope(c *ctxNode, inst *instance) (aig.InstanceScope, error) {
	scope := aig.InstanceScope{
		Elem: c.elem,
		Inh:  inst.inh,
		Syn:  make(map[string]*aig.AttrValue),
		All:  make(map[string][]*aig.AttrValue),
	}
	for _, ch := range c.children {
		for _, ci := range g.st.children(inst.id, ch.path) {
			if ci.syn == nil {
				continue // not yet computed; deps guarantee availability when needed
			}
			if _, ok := scope.Syn[ch.elem]; !ok {
				scope.Syn[ch.elem] = ci.syn
			}
			scope.All[ch.elem] = append(scope.All[ch.elem], ci.syn)
		}
	}
	return scope, nil
}

// buildSyn installs the synthesized-attribute computation (and guard
// checks) for one context.
func (g *graph) buildSyn(c *ctxNode) {
	sn := g.synOf[c.path]
	g.addEdge(g.inhDone[c.path], sn, 0)
	for _, ch := range c.children {
		g.addEdge(g.synOf[ch.path], sn, 0)
	}
	rows := g.estRows[c.path]
	sn.estCost = localCost(g.opts.Net, rows, false)

	p, _ := g.a.DTD.Production(c.elem)
	r := g.a.Rules[c.elem]
	sn.runLocal = func(x *exec) (int, error) {
		n := 0
		for _, inst := range g.st.all(c.path) {
			scope, err := g.instanceScope(c, inst)
			if err != nil {
				return n, err
			}
			var sr *aig.SynRule
			var guards []aig.Guard
			if r != nil {
				sr = r.Syn
				guards = r.Guards
				if p.Kind == dtd.ProdChoice && inst.branch >= 1 && inst.branch <= len(r.Branches) {
					sr = r.Branches[inst.branch-1].Syn
				}
			}
			syn, err := g.a.EvalSynFor(c.elem, sr, scope)
			if err != nil {
				return n, fmt.Errorf("mediator: syn of %s: %v", c.path, err)
			}
			inst.syn = syn
			for _, guard := range guards {
				ok, err := aig.CheckGuard(guard, syn)
				if err != nil {
					return n, err
				}
				if !ok {
					return n, &aig.AbortError{Elem: c.elem, Path: c.path, Guard: guard}
				}
			}
			n++
		}
		return n, nil
	}
}
