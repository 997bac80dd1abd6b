package sqlmini

import (
	"fmt"
	"testing"

	"github.com/aigrepro/aig/internal/relstore"
)

func benchCatalog(rows int) *relstore.Catalog {
	cat := relstore.NewCatalog()
	db := relstore.NewDatabase("DB")
	left := db.CreateTable("left", relstore.MustSchema("k:string", "a:int"))
	right := db.CreateTable("right", relstore.MustSchema("k:string", "b:int"))
	for i := 0; i < rows; i++ {
		k := relstore.String(fmt.Sprintf("k%06d", i))
		left.MustInsert(relstore.Tuple{k, relstore.Int(int64(i))})
		right.MustInsert(relstore.Tuple{k, relstore.Int(int64(i * 2))})
	}
	cat.Add(db)
	return cat
}

// BenchmarkHashJoin measures the executor's equi-join throughput.
func BenchmarkHashJoin(b *testing.B) {
	for _, rows := range []int{1000, 10000} {
		cat := benchCatalog(rows)
		q := MustParse(`select l.a, r.b from DB:left l, DB:right r where l.k = r.k and l.a >= 0`)
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := Run(q, CatalogSchemas{cat}, CatalogData{cat}, CatalogStats{cat}, nil, PlanOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if len(out.Rows) != rows {
					b.Fatalf("join returned %d rows", len(out.Rows))
				}
			}
		})
	}
}

// BenchmarkParse measures the SQL parser on the paper's Q2.
func BenchmarkParse(b *testing.B) {
	const q2 = `select t.trId, t.tname from DB1:visitInfo i, DB2:cover c, DB4:treatment t
		where i.SSN = $v.SSN and i.date = $v.date and t.trId = i.trId
		and c.trId = i.trId and c.policy = $v.policy`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParamJoin measures the set-parameter (IN) execution path the
// mediator's rewritten queries rely on.
func BenchmarkParamJoin(b *testing.B) {
	cat := benchCatalog(10000)
	q := MustParse(`select a from DB:left where k in $V`)
	var rows []relstore.Tuple
	for i := 0; i < 500; i++ {
		rows = append(rows, relstore.Tuple{relstore.String(fmt.Sprintf("k%06d", i*7))})
	}
	params := Params{"V": {Schema: relstore.MustSchema("k:string"), Rows: rows}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := Run(q, CatalogSchemas{cat}, CatalogData{cat}, CatalogStats{cat}, params, PlanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}
