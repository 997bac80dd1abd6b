// Package sqlmini implements the SQL subset used by AIG semantic rules: the
// select-project-join fragment with conjunctive predicates, scalar and
// set-valued parameters, IN lists, and source-qualified table references
// ("DB1:patient"). It provides a lexer, parser, name resolver, a
// statistics-driven left-deep planner, an executor over relstore catalogs,
// and the cost-estimation API (eval_cost / size) that the mediator's
// Schedule and Merge algorithms consume.
//
// The fragment deliberately mirrors the queries in the paper (Q1..Q4 and
// the decomposed Q2', Q2”): conjunctions of equality/comparison
// predicates, parameters written $v.field (a field of a scalar tuple
// parameter such as Inh(report)), set parameters usable both as IN
// operands ("trId in $V") and as table references ("from $v2 T2").
package sqlmini

import (
	"fmt"
	"sort"
	"strings"

	"github.com/aigrepro/aig/internal/relstore"
)

// Query is the AST of a parsed (or programmatically built) query. Fields
// are exported so that the specializer and mediator can rewrite queries —
// decomposition, parameter-to-table conversion and merging all construct
// new Query values.
type Query struct {
	// Distinct requests duplicate elimination on the output (SELECT
	// DISTINCT).
	Distinct bool
	Select   []SelectItem
	From     []TableRef
	Where    []Pred
}

// SelectItem is one output column of a query.
type SelectItem struct {
	Expr ColRef
	As   string // output name; defaults to Expr.Column
}

// OutputName returns the name this item contributes to the result schema.
func (s SelectItem) OutputName() string {
	if s.As != "" {
		return s.As
	}
	return s.Expr.Column
}

// TableRef is one entry of the FROM clause: either a stored table
// ("DB1:patient p"), a mediator temporary table ("Mediator:tmp_3 t"), or a
// set-valued parameter used as a relation ("$v2 T2").
type TableRef struct {
	Source string // database name; empty for parameter refs
	Table  string // table name; empty for parameter refs
	Param  string // parameter name when this ref scans a set parameter
	Alias  string // binding name used in column references
}

// IsParam reports whether the ref scans a set-valued parameter.
func (t TableRef) IsParam() bool { return t.Param != "" }

// BindName returns the name by which columns reference this table: the
// alias if present, else the table or parameter name.
func (t TableRef) BindName() string {
	if t.Alias != "" {
		return t.Alias
	}
	if t.IsParam() {
		return t.Param
	}
	return t.Table
}

// ColRef names a column, optionally qualified by a table binding name.
type ColRef struct {
	Table  string // alias or table name; empty if unqualified
	Column string
}

func (c ColRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// CompareOp is a comparison operator in a predicate.
type CompareOp uint8

// The supported comparison operators.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Eval applies the operator to the comparison result of two values.
func (op CompareOp) Eval(a, b relstore.Value) bool {
	c := a.Compare(b)
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	default:
		return false
	}
}

// PredKind discriminates the forms of predicate the fragment supports.
type PredKind uint8

// The predicate forms.
const (
	PredColCol     PredKind = iota // a.x <op> b.y
	PredColConst                   // a.x <op> literal
	PredColParam                   // a.x <op> $v.field   (scalar parameter field)
	PredColInParam                 // a.x IN $V           (set parameter)
	PredColInList                  // a.x IN (lit, ...)
)

// Pred is a single conjunct of the WHERE clause.
type Pred struct {
	Kind PredKind
	Op   CompareOp // for the three comparison forms
	Left ColRef

	Right      ColRef         // PredColCol
	Const      relstore.Value // PredColConst
	Param      string         // PredColParam / PredColInParam: parameter name
	ParamField string         // PredColParam: field of the scalar parameter
	List       []relstore.Value
}

// String renders the predicate in parseable SQL syntax.
func (p Pred) String() string {
	switch p.Kind {
	case PredColCol:
		return fmt.Sprintf("%s %s %s", p.Left, p.Op, p.Right)
	case PredColConst:
		return fmt.Sprintf("%s %s %s", p.Left, p.Op, litSQL(p.Const))
	case PredColParam:
		return fmt.Sprintf("%s %s $%s.%s", p.Left, p.Op, p.Param, p.ParamField)
	case PredColInParam:
		return fmt.Sprintf("%s in $%s", p.Left, p.Param)
	case PredColInList:
		parts := make([]string, len(p.List))
		for i, v := range p.List {
			parts[i] = litSQL(v)
		}
		return fmt.Sprintf("%s in (%s)", p.Left, strings.Join(parts, ", "))
	default:
		return "<bad pred>"
	}
}

func litSQL(v relstore.Value) string {
	if v.Kind() == relstore.KindString {
		return "'" + strings.ReplaceAll(v.AsString(), "'", "''") + "'"
	}
	return v.Text()
}

// String renders the query as parseable SQL, the wire form shipped to
// remote sources.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("select ")
	if q.Distinct {
		b.WriteString("distinct ")
	}
	for i, s := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.Expr.String())
		if s.As != "" && s.As != s.Expr.Column {
			b.WriteString(" as " + s.As)
		}
	}
	b.WriteString(" from ")
	for i, t := range q.From {
		if i > 0 {
			b.WriteString(", ")
		}
		if t.IsParam() {
			b.WriteString("$" + t.Param)
		} else if t.Source != "" {
			b.WriteString(t.Source + ":" + t.Table)
		} else {
			b.WriteString(t.Table)
		}
		if t.Alias != "" {
			b.WriteString(" " + t.Alias)
		}
	}
	if len(q.Where) > 0 {
		b.WriteString(" where ")
		for i, p := range q.Where {
			if i > 0 {
				b.WriteString(" and ")
			}
			b.WriteString(p.String())
		}
	}
	return b.String()
}

// Clone returns a deep copy of the query AST.
func (q *Query) Clone() *Query {
	out := &Query{
		Distinct: q.Distinct,
		Select:   append([]SelectItem(nil), q.Select...),
		From:     append([]TableRef(nil), q.From...),
		Where:    make([]Pred, len(q.Where)),
	}
	for i, p := range q.Where {
		p.List = append([]relstore.Value(nil), p.List...)
		out.Where[i] = p
	}
	return out
}

// Sources returns the sorted set of distinct database names referenced in
// the FROM clause. A query is multi-source iff len(Sources()) > 1; the
// specializer decomposes such queries into per-source sub-queries.
func (q *Query) Sources() []string {
	set := make(map[string]bool)
	for _, t := range q.From {
		if !t.IsParam() && t.Source != "" {
			set[t.Source] = true
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Params returns the sorted set of parameter names the query references,
// both scalar field references and set-valued uses.
func (q *Query) Params() []string {
	set := make(map[string]bool)
	for _, t := range q.From {
		if t.IsParam() {
			set[t.Param] = true
		}
	}
	for _, p := range q.Where {
		if p.Kind == PredColParam || p.Kind == PredColInParam {
			set[p.Param] = true
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Binding is a relation value: a schema plus an ordered multiset of
// rows. It is the type of every query result, parameter and attribute
// collection. Scalar tuple parameters (e.g. Inh(report)) have exactly one
// row; set parameters (e.g. the trIdS synthesized attribute) have any
// number of rows. Rows are immutable once built and may be shared between
// bindings: code builds new tuples and never writes into one it did not
// allocate.
type Binding struct {
	Schema relstore.Schema
	Rows   []relstore.Tuple
}

// ScalarBinding builds a one-row binding from parallel field names and
// values.
func ScalarBinding(fields []string, row relstore.Tuple) Binding {
	schema := make(relstore.Schema, len(fields))
	for i, f := range fields {
		kind := relstore.KindString
		if i < len(row) {
			kind = row[i].Kind()
		}
		if kind == relstore.KindNull {
			kind = relstore.KindString
		}
		schema[i] = relstore.Column{Name: f, Kind: kind}
	}
	return Binding{Schema: schema, Rows: []relstore.Tuple{row}}
}

// TableBinding takes a table's current rows as a binding.
func TableBinding(t *relstore.Table) Binding {
	return Binding{Schema: t.Schema(), Rows: t.Rows()}
}

// Field returns the value of the named field of a scalar (single-row)
// binding.
func (b Binding) Field(name string) (relstore.Value, error) {
	i := b.Schema.ColumnIndex(name)
	if i < 0 {
		return relstore.Null, fmt.Errorf("sqlmini: parameter has no field %q (fields: %v)", name, b.Schema.Names())
	}
	if len(b.Rows) == 0 {
		return relstore.Null, nil
	}
	return b.Rows[0][i], nil
}

// Distinct returns the binding with duplicate rows removed, keeping first
// occurrences in order. When there are no duplicates it returns b itself.
func (b Binding) Distinct() Binding {
	if len(b.Rows) < 2 {
		return b
	}
	seen := make(map[string]struct{}, len(b.Rows))
	var out []relstore.Tuple // allocated at the first duplicate
	for i, row := range b.Rows {
		k := row.Key()
		if _, dup := seen[k]; dup {
			if out == nil {
				out = append(make([]relstore.Tuple, 0, len(b.Rows)-1), b.Rows[:i]...)
			}
			continue
		}
		seen[k] = struct{}{}
		if out != nil {
			out = append(out, row)
		}
	}
	if out == nil {
		return b
	}
	return Binding{Schema: b.Schema, Rows: out}
}

// Equal reports whether two bindings have equal schemas and equal rows as
// multisets (order-insensitive).
func (b Binding) Equal(o Binding) bool {
	if !b.Schema.Equal(o.Schema) || len(b.Rows) != len(o.Rows) {
		return false
	}
	counts := make(map[string]int, len(b.Rows))
	for _, row := range b.Rows {
		counts[row.Key()]++
	}
	for _, row := range o.Rows {
		k := row.Key()
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

// Clone returns a binding with its own row slice that shares the
// (immutable) tuples and schema with b.
func (b Binding) Clone() Binding {
	return Binding{Schema: b.Schema, Rows: append([]relstore.Tuple(nil), b.Rows...)}
}

// ByteSize returns the approximate wire size of the rows, used by the
// communication cost model.
func (b Binding) ByteSize() int {
	n := 0
	for _, row := range b.Rows {
		n += row.ByteSize()
	}
	return n
}

// Params maps parameter names to bindings for one execution.
type Params map[string]Binding
