package sqlmini

import (
	"testing"

	"github.com/aigrepro/aig/internal/relstore"
)

func intBinding(vals ...int64) Binding {
	b := Binding{Schema: relstore.MustSchema("x:int")}
	for _, v := range vals {
		b.Rows = append(b.Rows, relstore.Tuple{relstore.Int(v)})
	}
	return b
}

func TestBindingDistinctKeepsFirstOccurrences(t *testing.T) {
	in := intBinding(3, 1, 3, 2, 1)
	out := in.Distinct()
	if got := rowsAsStrings(out); len(got) != 3 {
		t.Fatalf("Distinct kept %v, want 3 rows", got)
	}
	for i, want := range []int64{3, 1, 2} {
		if out.Rows[i][0].AsInt() != want {
			t.Errorf("row %d = %v, want %d (first occurrences, in order)", i, out.Rows[i], want)
		}
	}
	// The input is a value: deduplication leaves it untouched.
	if len(in.Rows) != 5 || in.Rows[2][0].AsInt() != 3 {
		t.Errorf("Distinct modified its input: %v", in.Rows)
	}
	// Without duplicates the binding comes back as it was.
	plain := intBinding(1, 2, 3)
	if got := plain.Distinct(); &got.Rows[0] != &plain.Rows[0] {
		t.Error("Distinct copied a duplicate-free binding")
	}
}

func TestBindingEqualIsMultisetEqual(t *testing.T) {
	a, b := intBinding(1, 2, 2), intBinding(2, 1, 2)
	if !a.Equal(b) {
		t.Error("permuted bindings not Equal")
	}
	if a.Equal(intBinding(1, 2, 2, 2)) {
		t.Error("different-cardinality bindings Equal")
	}
	if a.Equal(intBinding(1, 1, 2)) {
		t.Error("different multiplicities Equal")
	}
	other := Binding{Schema: relstore.MustSchema("y:int"), Rows: a.Rows}
	if a.Equal(other) {
		t.Error("different schemas Equal")
	}
}

func TestBindingCloneSharesRows(t *testing.T) {
	a := intBinding(1, 2)
	c := a.Clone()
	if !c.Equal(a) || &c.Rows[0][0] != &a.Rows[0][0] {
		t.Error("Clone does not share the tuples")
	}
	c.Rows = append(c.Rows[:1], relstore.Tuple{relstore.Int(9)})
	if a.Rows[1][0].AsInt() != 2 {
		t.Error("appending to a clone changed the original's rows")
	}
	if a.ByteSize() != a.Rows[0].ByteSize()+a.Rows[1].ByteSize() {
		t.Error("ByteSize inconsistent with row sizes")
	}
}

func TestExecDistinct(t *testing.T) {
	cat := hospitalCatalog()
	out := runQuery(t, cat, `select distinct policy from DB1:patient`, nil)
	got := rowsAsStrings(out)
	if len(got) != 2 || got[0] != "gold" || got[1] != "silver" {
		t.Errorf("select distinct policy = %v, want [gold silver]", got)
	}
}
