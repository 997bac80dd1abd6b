package source

import (
	"context"
	"strings"
	"testing"

	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/sqlmini"
)

func localDB1(t *testing.T) (*Local, *relstore.Catalog) {
	t.Helper()
	cat := hospital.TinyCatalog()
	db, err := cat.Database("DB1")
	if err != nil {
		t.Fatal(err)
	}
	return NewLocal(db), cat
}

func TestLocalBasics(t *testing.T) {
	l, _ := localDB1(t)
	if l.Name() != "DB1" {
		t.Errorf("Name = %q", l.Name())
	}
	schema, err := l.TableSchema("patient")
	if err != nil || len(schema) != 3 {
		t.Errorf("TableSchema = %v, %v", schema, err)
	}
	if _, err := l.TableSchema("nope"); err == nil {
		t.Error("missing table accepted")
	}
	if n, err := l.TableCard("patient"); err != nil || n != 3 {
		t.Errorf("TableCard = %d, %v", n, err)
	}
	if _, err := l.TableCard("nope"); err == nil {
		t.Error("missing card accepted")
	}
	if n, err := l.ColumnDistinct("patient", "policy"); err != nil || n != 2 {
		t.Errorf("ColumnDistinct = %d, %v", n, err)
	}
}

func TestLocalExecAndEstimate(t *testing.T) {
	l, _ := localDB1(t)
	q := sqlmini.MustParse(`select SSN from DB1:visitInfo where date = $v.date`)
	params := sqlmini.Params{"v": sqlmini.ScalarBinding([]string{"date"}, relstore.Tuple{relstore.String("d1")})}
	out, dur, err := l.Exec(context.Background(), "out", q, params, sqlmini.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 || dur < 0 {
		t.Errorf("Exec returned %d rows, dur %v", out.Len(), dur)
	}
	est, err := l.Estimate(context.Background(), q, sqlmini.ParamSchemas{"v": relstore.MustSchema("date:string")}, sqlmini.PlanOptions{})
	if err != nil || est.Rows <= 0 || est.Cost <= 0 || est.Bytes <= 0 {
		t.Errorf("Estimate = %+v, %v", est, err)
	}
}

func TestLocalRejectsForeignQueries(t *testing.T) {
	l, _ := localDB1(t)
	q := sqlmini.MustParse(`select trId from DB3:billing`)
	if _, _, err := l.Exec(context.Background(), "out", q, nil, sqlmini.PlanOptions{}); err == nil || !strings.Contains(err.Error(), "foreign source") {
		t.Errorf("foreign query error = %v", err)
	}
	if _, err := l.Estimate(context.Background(), q, nil, sqlmini.PlanOptions{}); err == nil {
		t.Error("foreign estimate accepted")
	}
}

func TestRegistry(t *testing.T) {
	cat := hospital.TinyCatalog()
	reg := RegistryFromCatalog(cat)
	names := reg.Names()
	if len(names) != 4 || names[0] != "DB1" || names[3] != "DB4" {
		t.Errorf("Names = %v", names)
	}
	if _, err := reg.Get("DB9"); err == nil {
		t.Error("missing source accepted")
	}

	// The registry implements the sqlmini provider interfaces across all
	// sources.
	if s, err := reg.TableSchema("DB3", "billing"); err != nil || len(s) != 2 {
		t.Errorf("TableSchema = %v, %v", s, err)
	}
	if n, err := reg.TableCard("DB2", "cover"); err != nil || n != 5 {
		t.Errorf("TableCard = %d, %v", n, err)
	}
	if n, err := reg.ColumnDistinct("DB4", "treatment", "trId"); err != nil || n != 5 {
		t.Errorf("ColumnDistinct = %d, %v", n, err)
	}
	if tbl, err := reg.TableData("DB1", "patient"); err != nil || tbl.Len() != 3 {
		t.Errorf("TableData = %v, %v", tbl, err)
	}
	if _, err := reg.TableData("DBX", "t"); err == nil {
		t.Error("TableData on missing source accepted")
	}

	// A multi-source query resolves and runs against the registry as a
	// combined view — this is what the conceptual evaluator uses.
	q := sqlmini.MustParse(`select t.tname from DB4:treatment t, DB3:billing b where t.trId = b.trId and b.price > 200`)
	out, err := sqlmini.Run(q, reg, reg, reg, nil, sqlmini.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 { // t2 (250) and t4 (999)
		t.Errorf("cross-source join returned %d rows, want 2", len(out.Rows))
	}
}

func TestRegistryAddReplaces(t *testing.T) {
	cat := hospital.TinyCatalog()
	reg := RegistryFromCatalog(cat)
	other := relstore.NewDatabase("DB1")
	other.CreateTable("patient", relstore.MustSchema("SSN:string"))
	reg.Add(NewLocal(other))
	s, err := reg.TableSchema("DB1", "patient")
	if err != nil || len(s) != 1 {
		t.Errorf("replacement source not used: %v, %v", s, err)
	}
}
