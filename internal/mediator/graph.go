package mediator

import (
	"context"
	"fmt"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// ctxNode is one occurrence of an element type in the DTD's template tree
// — the unit at which the mediator materializes instance tables and
// computes synthesized attributes. Distinguishing occurrences (Fig. 6
// shows trId once under treatment and once under item) is what keeps the
// dependency graph acyclic when a type is shared between independent
// subtrees.
type ctxNode struct {
	path     string
	elem     string
	parent   *ctxNode
	children []*ctxNode // production order; one per occurrence
}

// buildContextTree expands the (non-recursive) DTD into its template
// tree.
func buildContextTree(d *dtd.DTD) (*ctxNode, error) {
	if d.IsRecursive() {
		return nil, fmt.Errorf("mediator: the DTD is recursive; unfold it first (specialize.Unfold) or use EvaluateRecursive")
	}
	var expand func(elem, path string, parent *ctxNode) *ctxNode
	expand = func(elem, path string, parent *ctxNode) *ctxNode {
		n := &ctxNode{path: path, elem: elem, parent: parent}
		p, _ := d.Production(elem)
		occ := make(map[string]int)
		for _, c := range p.Children {
			occ[c]++
			childPath := path + "/" + c
			if occ[c] > 1 {
				childPath = fmt.Sprintf("%s#%d", childPath, occ[c])
			}
			n.children = append(n.children, expand(c, childPath, n))
		}
		return n
	}
	return expand(d.Root, d.Root, nil), nil
}

// child returns the first child occurrence of the given element type.
func (c *ctxNode) child(elem string) *ctxNode {
	for _, ch := range c.children {
		if ch.elem == elem {
			return ch
		}
	}
	return nil
}

// nodeKind discriminates graph nodes.
type nodeKind int

const (
	nodeQuery nodeKind = iota // executes at a real source
	nodeLocal                 // mediator-side application code
)

// edge is a producer-consumer dependency in the query dependency graph,
// annotated with the shipped volume (estimated at compile time, measured
// at run time).
type edge struct {
	from, to *node
	estBytes float64
	bytes    int
	// producers, set when edges are rewired around merged nodes, lists
	// the original producing nodes this edge stands for: the consumer
	// receives only those parts' outputs ("the relevant tuples from Q are
	// extracted before shipping", §5.4).
	producers []*node
}

// node is one vertex of the dependency graph: a (possibly merged) query
// at a source, or a local mediator task.
type node struct {
	idx    int
	name   string
	kind   nodeKind
	source string
	in     []*edge
	out    []*edge

	// Query nodes execute their parts in order; merging fuses nodes by
	// concatenating parts (§5.4).
	parts []*part
	// items, set on merged nodes, interleaves query parts with absorbed
	// local tasks in dependency order.
	items []mergedItem

	// Local nodes run application code against the store; they report the
	// number of rows touched so the virtual clock can charge
	// MediatorRowCostSec.
	runLocal func(x *exec) (rows int, err error)

	// Compile-time estimates (for Schedule/Merge).
	estCost     float64
	estOutBytes float64

	// Runtime measurements.
	done     chan struct{}
	finished bool // set (under the exec mutex) before done closes
	err      error
	evalSec  float64
	outRows  int
	outBytes int
}

// part is one original query inside a (possibly merged) query node.
type part struct {
	name      string
	rw        *rewritten
	origin    *node // the pre-merge node that owned this part
	parentCtx *ctxNode
	// branch restricts the parent instances to those that chose the given
	// alternative of a choice production (0 = no restriction).
	branch int
	// prev is the chain predecessor whose output binds $prev.
	prev *part
	// estimates
	estRows  float64
	estBytes float64
	estCost  float64
	// out is the runtime result; nil until the part has run.
	out *sqlmini.Binding
}

// graph is the compiled dependency graph plus the store and context tree.
type graph struct {
	a     *aig.AIG
	reg   *source.Registry
	opts  Options
	ctx   context.Context // compile-time context; carries the caller's trace
	root  *ctxNode
	nodes []*node
	edges []*edge

	inhDone map[string]*node // ctx path -> barrier: instance table complete
	synOf   map[string]*node // ctx path -> syn computed
	estRows map[string]float64

	st      *store
	rootIDs []int // ids of root instances (exactly one)

	// executed, set after a successful run, is the plan as executed (the
	// recorded dispatch order under dynamic scheduling) — what
	// ExplainAnalyze renders.
	executed *plan
}

func (g *graph) newNode(kind nodeKind, src, name string) *node {
	n := &node{idx: len(g.nodes), kind: kind, source: src, name: name, done: make(chan struct{})}
	g.nodes = append(g.nodes, n)
	return n
}

func (g *graph) addEdge(from, to *node, estBytes float64) {
	if from == nil || to == nil || from == to {
		return
	}
	for _, e := range to.in {
		if e.from == from {
			e.estBytes += estBytes
			return
		}
	}
	e := &edge{from: from, to: to, estBytes: estBytes}
	g.edges = append(g.edges, e)
	from.out = append(from.out, e)
	to.in = append(to.in, e)
}

// attrSchemaFn resolves a rule source reference to its per-tuple binding
// schema within the AIG's declarations.
func (g *graph) attrSchema(src aig.SourceRef) (relstore.Schema, error) {
	var decl aig.AttrDecl
	if src.Side == aig.InhSide {
		decl = g.a.Inh[src.Elem]
	} else {
		decl = g.a.Syn[src.Elem]
	}
	if src.Member == "" {
		return decl.ScalarSchema(), nil
	}
	m, ok := decl.Member(src.Member)
	if !ok {
		return nil, fmt.Errorf("mediator: %s has no member %q", src, src.Member)
	}
	if m.Kind == aig.Scalar {
		return relstore.Schema{{Name: m.Name, Kind: m.ValueKind}}, nil
	}
	return m.Fields, nil
}

// depNodeFor returns the graph node whose completion makes a rule source
// available at the given parent context: the parent's inherited barrier
// for Inh references, the sibling's syn node for Syn references.
func (g *graph) depNodeFor(parentCtx *ctxNode, src aig.SourceRef) (*node, error) {
	if src.Side == aig.InhSide {
		return g.inhDone[parentCtx.path], nil
	}
	sib := parentCtx.child(src.Elem)
	if sib == nil {
		return nil, fmt.Errorf("mediator: %s: no child %q under %s", src, src.Elem, parentCtx.path)
	}
	return g.synOf[sib.path], nil
}

// compile builds the dependency graph for the AIG. ctx carries the
// caller's trace (source Estimate calls made while costing parent under
// the compile-phase span) and cancellation.
func compile(ctx context.Context, a *aig.AIG, reg *source.Registry, opts Options) (*graph, error) {
	root, err := buildContextTree(a.DTD)
	if err != nil {
		return nil, err
	}
	g := &graph{
		a: a, reg: reg, opts: opts, ctx: ctx, root: root,
		inhDone: make(map[string]*node),
		synOf:   make(map[string]*node),
		estRows: make(map[string]float64),
		st:      newStore(),
	}

	// Pass 1: create the barrier and syn nodes for every context.
	var mk func(c *ctxNode)
	mk = func(c *ctxNode) {
		g.inhDone[c.path] = g.newNode(nodeLocal, MediatorSource, "inh:"+c.path)
		g.synOf[c.path] = g.newNode(nodeLocal, MediatorSource, "syn:"+c.path)
		for _, ch := range c.children {
			mk(ch)
		}
	}
	mk(root)

	// The root barrier creates the single root instance from the AIG's
	// attribute (bound at execution time via exec.rootInh).
	g.inhDone[root.path].runLocal = func(x *exec) (int, error) {
		g.st.add(root.path, -1, x.rootInh)
		return 1, nil
	}

	// Pass 2: per-context materialization tasks, top-down so estimates
	// cascade.
	g.estRows[root.path] = 1
	if err := g.buildCtx(root); err != nil {
		return nil, err
	}

	// Pass 3: syn tasks bottom-up.
	var wireSyn func(c *ctxNode)
	wireSyn = func(c *ctxNode) {
		for _, ch := range c.children {
			wireSyn(ch)
		}
		g.buildSyn(c)
	}
	wireSyn(root)
	return g, nil
}

// buildCtx creates the materialization nodes for the children of context
// c and recurses.
func (g *graph) buildCtx(c *ctxNode) error {
	p, ok := g.a.DTD.Production(c.elem)
	if !ok {
		return fmt.Errorf("mediator: no production for %q", c.elem)
	}
	r := g.a.Rules[c.elem]

	switch p.Kind {
	case dtd.ProdText, dtd.ProdEmpty:
		// Leaves: nothing to materialize below.
		return nil

	case dtd.ProdSeq:
		for _, ch := range c.children {
			var ir *aig.InhRule
			if r != nil {
				ir = r.Inh[ch.elem]
			}
			if err := g.buildEdge(c, ch, ir, 0, false); err != nil {
				return err
			}
			if err := g.buildCtx(ch); err != nil {
				return err
			}
		}
		return nil

	case dtd.ProdStar:
		ch := c.children[0]
		var ir *aig.InhRule
		if r != nil {
			ir = r.Inh[ch.elem]
		}
		if ir == nil {
			return fmt.Errorf("mediator: star production of %s has no rule for %s", c.elem, ch.elem)
		}
		if err := g.buildEdge(c, ch, ir, 0, true); err != nil {
			return err
		}
		return g.buildCtx(ch)

	case dtd.ProdChoice:
		if r == nil || r.Cond == nil {
			return fmt.Errorf("mediator: choice production of %s has no condition query", c.elem)
		}
		condNode, err := g.buildCond(c, r)
		if err != nil {
			return err
		}
		for bi, ch := range c.children {
			var ir *aig.InhRule
			if bi < len(r.Branches) {
				ir = r.Branches[bi].Inh
			}
			if err := g.buildBranchEdge(c, ch, ir, bi+1, condNode); err != nil {
				return err
			}
			if err := g.buildCtx(ch); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("mediator: bad production kind for %s", c.elem)
	}
}
