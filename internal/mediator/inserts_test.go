package mediator

import (
	"testing"

	"github.com/aigrepro/aig/internal/datagen"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// TestEvaluationInsertsNoStoredRows checks that aig_relstore_inserts_total
// counts writes to stored tables only: a full hospital evaluation builds
// its query results and attribute collections as plain values, so it
// leaves the counter where it was.
func TestEvaluationInsertsNoStoredRows(t *testing.T) {
	cat := datagen.Generate(datagen.Tiny, 1)
	schemas := sqlmini.CatalogSchemas{Catalog: cat}
	stats := sqlmini.CatalogStats{Catalog: cat}
	a, err := specialize.CompileConstraints(hospital.Sigma0(true))
	if err != nil {
		t.Fatal(err)
	}
	a, err = specialize.DecomposeQueries(a, schemas, stats, sqlmini.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(source.RegistryFromCatalog(cat), DefaultOptions())

	inserts := obs.Default.NewCounter("aig_relstore_inserts_total", "")
	before := inserts.Value()
	res, _, err := m.EvaluateRecursive(a, hospital.RootInh(a, datagen.Date(0)), 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Doc.Descendants("patient")); n == 0 {
		t.Fatal("evaluation produced no patients; the check would be vacuous")
	}
	if got := inserts.Value() - before; got != 0 {
		t.Errorf("one evaluation moved aig_relstore_inserts_total by %d, want 0", got)
	}
}
