package relstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Table is a stored relation of a source database: a schema plus an
// ordered multiset of tuples. Row storage is copy-on-write: readers load
// an immutable snapshot through an atomic pointer, so reads are safe
// against a concurrent writer without locking. Writers are serialized by
// the table mutex. Query results and attribute collections are not
// tables; they are plain {schema, rows} values (sqlmini.Binding).
//
// Every mutation advances a monotonic per-table version and, when the
// mutation is expressible as row inserts/deletes, appends the delta to a
// bounded change log consumed by incremental view maintenance.
type Table struct {
	name   string
	schema Schema

	// snap is the published row snapshot: an immutable slice with
	// len == cap, possibly aliasing a prefix of buf.
	snap atomic.Pointer[[]Tuple]

	// version counts mutations of this table, starting at zero.
	version atomic.Uint64

	mu sync.Mutex
	// buf is the writer-side buffer. The prefix published in snap is
	// never rewritten in place; appends either fill spare capacity the
	// snapshot cannot see or reallocate.
	buf []Tuple
	log changeLog
	// onBegin fires before a mutation publishes any data, onMutate after
	// the mutation is fully visible. Databases hook registered tables
	// here so the database's seqlock-style data version goes odd for the
	// duration of the write and lands even past it — the bracket version
	// caches use to recognize consistent snapshots.
	onBegin  []func()
	onMutate []func()

	// p, when set, is the durability layer of the owning database: each
	// mutation then takes the persister's gate before the table mutex,
	// journals a WAL record, and only applies if the append succeeds.
	// Read atomically so the unpersisted fast path costs one nil check.
	p atomic.Pointer[Persister]
}

// NewTable creates an empty table with the given name and schema.
func NewTable(name string, schema Schema) *Table {
	return &Table{name: name, schema: schema}
}

// TableOf wraps rows as a table at version zero with an empty change log:
// the form in which a source hands out a query result. Every row is
// checked against the schema, because results can arrive from the wire.
// The table takes ownership of rows, which must not be modified
// afterwards. Wrapping records no mutation: no version bump, change-log
// entry, hook or insert metric.
func TableOf(name string, schema Schema, rows []Tuple) (*Table, error) {
	for _, row := range rows {
		if err := schema.Validate(row); err != nil {
			return nil, fmt.Errorf("table %q: %v", name, err)
		}
	}
	return tableOf(name, schema, rows), nil
}

// tableOf is TableOf for rows already known to fit the schema.
func tableOf(name string, schema Schema, rows []Tuple) *Table {
	t := NewTable(name, schema)
	t.buf = rows[:len(rows):len(rows)]
	t.publishLocked()
	return t
}

// Name returns the table's name.
func (t *Table) Name() string { return t.name }

// Schema returns the table's schema. Callers must not mutate it.
func (t *Table) Schema() Schema { return t.schema }

// rowsSnap loads the current immutable row snapshot.
func (t *Table) rowsSnap() []Tuple {
	if p := t.snap.Load(); p != nil {
		return *p
	}
	return nil
}

// publishLocked makes the current buffer the visible snapshot. The
// three-index slice caps the snapshot at its length so later in-place
// appends to spare buffer capacity stay invisible to readers.
func (t *Table) publishLocked() {
	s := t.buf[:len(t.buf):len(t.buf)]
	t.snap.Store(&s)
}

// Len returns the number of tuples (the relation's cardinality).
func (t *Table) Len() int { return len(t.rowsSnap()) }

// Row returns the i-th tuple. Callers must not mutate it.
func (t *Table) Row(i int) Tuple { return t.rowsSnap()[i] }

// Rows returns the current row snapshot. Callers must not mutate it;
// use Insert to add rows. The snapshot is immutable: it does not observe
// later mutations.
func (t *Table) Rows() []Tuple { return t.rowsSnap() }

// Version returns the table's data version: a monotonic counter that
// increases on every mutating operation and never on reads. A reader
// that observes version v through Rows() sees at least the mutations up
// to v.
func (t *Table) Version() uint64 { return t.version.Load() }

// SetChangeLogLimit bounds the change log to n row deltas (0 restores
// DefaultChangeLogLimit). A negative n disables delta logging entirely:
// every ChangesSince window is reported truncated, forcing full
// refreshes.
func (t *Table) SetChangeLogLimit(n int) {
	if p := t.p.Load(); p != nil {
		p.gate.Lock()
		defer p.gate.Unlock()
		// Journaled because the limit shapes future log state: replaying
		// the same mutations under a different limit would recover a
		// different ChangesSince answer.
		if p.append(&walRecord{Kind: recLogLimit, Table: t.name, Limit: n}) != nil {
			return
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 0 {
		t.log.disabled = true
		t.log.limit = 0
		t.log.resetLocked(t.version.Load(), TruncateReset)
		return
	}
	t.log.disabled = false
	t.log.limit = n
	for n > 0 && len(t.log.entries) > n {
		t.log.minVer = t.log.entries[0].Ver
		t.log.cause = TruncateRolled
		t.log.entries = t.log.entries[1:]
	}
}

// ChangesSince returns the row deltas after version since, or a
// truncated ChangeSet when the bounded log no longer covers the window.
func (t *Table) ChangesSince(since uint64) ChangeSet {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.log.sinceLocked(t.name, since, t.version.Load())
}

// resetLogPastLocked is used when this table replaces another under the
// same name: its version jumps past the predecessor's so the sequence
// observed by name stays monotonic, and the log resets because already
// logged deltas carry stale version numbers.
func (t *Table) resetLogPast(prev uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur := t.version.Load(); cur <= prev {
		t.version.Store(prev + 1)
	}
	t.log.resetLocked(t.version.Load(), TruncateReset)
}

// hookMutations registers a (begin, end) callback pair bracketing every
// mutation.
func (t *Table) hookMutations(begin, end func()) {
	t.mu.Lock()
	t.onBegin = append(t.onBegin, begin)
	t.onMutate = append(t.onMutate, end)
	t.mu.Unlock()
}

// beginMutateLocked runs the begin callbacks. Writers call it under the
// table lock, before publishing any data.
func (t *Table) beginMutateLocked() {
	for _, fn := range t.onBegin {
		fn()
	}
}

// mutated runs the end-of-mutation callbacks outside the table lock.
func (t *Table) mutated() {
	t.mu.Lock()
	fns := t.onMutate
	t.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// Insert appends a tuple after validating it against the schema.
func (t *Table) Insert(row Tuple) error {
	if err := t.schema.Validate(row); err != nil {
		return fmt.Errorf("table %q: %v", t.name, err)
	}
	if p := t.p.Load(); p != nil {
		p.gate.Lock()
		defer p.gate.Unlock()
		if err := p.append(&walRecord{Kind: recInsert, DBDelta: 2, Table: t.name,
			Ver: t.version.Load() + 1, Row: rowToWal(row)}); err != nil {
			return err
		}
	}
	t.mu.Lock()
	t.beginMutateLocked()
	t.buf = append(t.buf, row)
	t.publishLocked()
	ver := t.version.Add(1)
	t.log.appendLocked(Change{Ver: ver, Op: ChangeInsert, Row: row})
	t.mu.Unlock()
	metricInserts.Inc()
	t.mutated()
	return nil
}

// MustInsert is Insert panicking on error, for tests and generators whose
// tuples are constructed from the schema itself.
func (t *Table) MustInsert(row Tuple) {
	if err := t.Insert(row); err != nil {
		panic(err)
	}
}

// InsertValues builds a tuple by parsing each argument according to the
// schema column kinds and inserts it. Arguments may be int64, int, string
// or Value.
func (t *Table) InsertValues(vals ...any) error {
	if len(vals) != len(t.schema) {
		return fmt.Errorf("table %q: %d values for %d columns", t.name, len(vals), len(t.schema))
	}
	row := make(Tuple, len(vals))
	for i, raw := range vals {
		switch v := raw.(type) {
		case Value:
			row[i] = v
		case int:
			row[i] = Int(int64(v))
		case int64:
			row[i] = Int(v)
		case string:
			if t.schema[i].Kind == KindInt {
				parsed, err := ParseValue(KindInt, v)
				if err != nil {
					return err
				}
				row[i] = parsed
			} else {
				row[i] = String(v)
			}
		case nil:
			row[i] = Null
		default:
			return fmt.Errorf("table %q: unsupported value %T", t.name, raw)
		}
	}
	return t.Insert(row)
}

// DeleteAt removes the i-th row and returns it.
func (t *Table) DeleteAt(i int) (Tuple, error) {
	if p := t.p.Load(); p != nil {
		p.gate.Lock()
		defer p.gate.Unlock()
		// Validate against the published snapshot — the gate excludes
		// writers, so it equals the buffer — before journaling, so an
		// out-of-range index never reaches the log.
		if n := len(t.rowsSnap()); i < 0 || i >= n {
			return nil, fmt.Errorf("table %q: delete index %d out of range [0,%d)", t.name, i, n)
		}
		if err := p.append(&walRecord{Kind: recDeleteAt, DBDelta: 2, Table: t.name,
			Ver: t.version.Load() + 1, Index: i}); err != nil {
			return nil, err
		}
	}
	t.mu.Lock()
	if i < 0 || i >= len(t.buf) {
		n := len(t.buf)
		t.mu.Unlock()
		return nil, fmt.Errorf("table %q: delete index %d out of range [0,%d)", t.name, i, n)
	}
	row := t.buf[i]
	t.beginMutateLocked()
	// The published prefix may alias buf, so removal copies instead of
	// shifting in place.
	next := make([]Tuple, 0, len(t.buf)-1)
	next = append(next, t.buf[:i]...)
	next = append(next, t.buf[i+1:]...)
	t.buf = next
	t.publishLocked()
	ver := t.version.Add(1)
	t.log.appendLocked(Change{Ver: ver, Op: ChangeDelete, Row: row})
	t.mu.Unlock()
	metricDeletes.Inc()
	t.mutated()
	return row, nil
}

// DeleteWhere removes every row the predicate matches, returning the
// count. All removals are logged under a single new table version.
func (t *Table) DeleteWhere(match func(Tuple) bool) int {
	if p := t.p.Load(); p != nil {
		p.gate.Lock()
		defer p.gate.Unlock()
		// Predicates cannot be journaled; the matched positions can. The
		// gate excludes writers, so the published snapshot the predicate
		// runs over is the state the positions will apply to.
		var idx []int
		for i, row := range t.rowsSnap() {
			if match(row) {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return 0
		}
		if err := p.append(&walRecord{Kind: recDeleteRows, DBDelta: 2, Table: t.name,
			Ver: t.version.Load() + 1, Indices: idx}); err != nil {
			return 0
		}
		return t.deleteIndices(idx)
	}
	t.mu.Lock()
	var removed []Tuple
	next := make([]Tuple, 0, len(t.buf))
	for _, row := range t.buf {
		if match(row) {
			removed = append(removed, row)
		} else {
			next = append(next, row)
		}
	}
	if len(removed) == 0 {
		t.mu.Unlock()
		return 0
	}
	t.beginMutateLocked()
	t.buf = next
	t.publishLocked()
	ver := t.version.Add(1)
	for _, row := range removed {
		t.log.appendLocked(Change{Ver: ver, Op: ChangeDelete, Row: row})
	}
	t.mu.Unlock()
	metricDeletes.Add(int64(len(removed)))
	t.mutated()
	return len(removed)
}

// deleteIndices removes the rows at the given ascending positions,
// logging every removal under one new version — the journaled (and
// replayed) core of DeleteWhere.
func (t *Table) deleteIndices(idx []int) int {
	t.mu.Lock()
	removed := make([]Tuple, 0, len(idx))
	next := make([]Tuple, 0, len(t.buf)-len(idx))
	j := 0
	for i, row := range t.buf {
		if j < len(idx) && idx[j] == i {
			removed = append(removed, row)
			j++
		} else {
			next = append(next, row)
		}
	}
	t.beginMutateLocked()
	t.buf = next
	t.publishLocked()
	ver := t.version.Add(1)
	for _, row := range removed {
		t.log.appendLocked(Change{Ver: ver, Op: ChangeDelete, Row: row})
	}
	t.mu.Unlock()
	metricDeletes.Add(int64(len(removed)))
	t.mutated()
	return len(removed)
}

// DistinctCount returns the number of distinct values in the given column,
// used by selectivity estimation.
func (t *Table) DistinctCount(col int) int {
	rows := t.rowsSnap()
	seen := make(map[string]struct{}, len(rows))
	for _, row := range rows {
		seen[row[col].Key()] = struct{}{}
	}
	return len(seen)
}

// Clone returns a copy of the table as a fresh incarnation at version
// zero: its version and change log are not copied. The clone shares the
// immutable tuples; mutating either table never affects the other.
func (t *Table) Clone() *Table {
	return tableOf(t.name, t.schema, append([]Tuple(nil), t.rowsSnap()...))
}

// Sort orders the table's rows lexicographically by the given columns
// (all columns when cols is nil). Sorting is stable. The tagger relies on
// this to group rows by their path-encoding prefix. Reordering is not
// expressible as row deltas, so Sort resets the change log: pending
// ChangesSince windows come back truncated.
func (t *Table) Sort(cols []int) {
	if p := t.p.Load(); p != nil {
		p.gate.Lock()
		defer p.gate.Unlock()
		// Replay re-executes the (stable, hence deterministic) sort.
		if p.append(&walRecord{Kind: recSort, DBDelta: 2, Table: t.name,
			Ver: t.version.Load() + 1, Cols: cols, HasCols: cols != nil}) != nil {
			return
		}
	}
	t.mu.Lock()
	t.beginMutateLocked()
	next := make([]Tuple, len(t.buf))
	copy(next, t.buf)
	sort.SliceStable(next, func(i, j int) bool {
		a, b := next[i], next[j]
		if cols == nil {
			return a.Compare(b) < 0
		}
		for _, c := range cols {
			if cmp := a[c].Compare(b[c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	t.buf = next
	t.publishLocked()
	ver := t.version.Add(1)
	t.log.resetLocked(ver, TruncateReset)
	t.mu.Unlock()
	t.mutated()
}

// Distinct removes duplicate rows, keeping first occurrences. Dropped
// duplicates are logged as deletes (order of survivors is unchanged).
func (t *Table) Distinct() {
	if p := t.p.Load(); p != nil {
		p.gate.Lock()
		defer p.gate.Unlock()
		// Replay re-executes: keeping first occurrences is deterministic.
		if p.append(&walRecord{Kind: recDistinct, DBDelta: 2, Table: t.name,
			Ver: t.version.Load() + 1}) != nil {
			return
		}
	}
	t.mu.Lock()
	t.beginMutateLocked()
	seen := make(map[string]struct{}, len(t.buf))
	out := make([]Tuple, 0, len(t.buf))
	var dropped []Tuple
	for _, row := range t.buf {
		k := row.Key()
		if _, dup := seen[k]; dup {
			dropped = append(dropped, row)
			continue
		}
		seen[k] = struct{}{}
		out = append(out, row)
	}
	t.buf = out
	t.publishLocked()
	ver := t.version.Add(1)
	for _, row := range dropped {
		t.log.appendLocked(Change{Ver: ver, Op: ChangeDelete, Row: row})
	}
	t.mu.Unlock()
	t.mutated()
}

// Equal reports whether two tables have equal schemas and equal rows as
// multisets (order-insensitive).
func (t *Table) Equal(u *Table) bool {
	trows, urows := t.rowsSnap(), u.rowsSnap()
	if !t.schema.Equal(u.schema) || len(trows) != len(urows) {
		return false
	}
	counts := make(map[string]int, len(trows))
	for _, row := range trows {
		counts[row.Key()]++
	}
	for _, row := range urows {
		counts[row.Key()]--
		if counts[row.Key()] < 0 {
			return false
		}
	}
	return true
}

// String renders the table with its schema and up to 20 rows, for
// debugging and error messages.
func (t *Table) String() string {
	rows := t.rowsSnap()
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s [%d rows]", t.name, t.schema, len(rows))
	for i, row := range rows {
		if i == 20 {
			b.WriteString("\n  ...")
			break
		}
		b.WriteString("\n  " + row.String())
	}
	return b.String()
}
