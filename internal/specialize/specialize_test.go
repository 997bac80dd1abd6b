package specialize

import (
	"strings"
	"testing"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/sqlmini"
	"github.com/aigrepro/aig/internal/xconstraint"
)

func TestCompileConstraintsValidatesAndRuns(t *testing.T) {
	a := hospital.Sigma0(true)
	sa, err := CompileConstraints(a)
	if err != nil {
		t.Fatal(err)
	}
	cat := hospital.TinyCatalog()
	if err := sa.Validate(sqlmini.CatalogSchemas{Catalog: cat}); err != nil {
		t.Fatalf("compiled AIG invalid: %v", err)
	}

	// Structure: patient gains the key bag and both IC sets, with a guard.
	if _, ok := sa.Syn["patient"].Member("k0"); !ok {
		t.Errorf("Syn(patient) lacks key member: %v", sa.Syn["patient"])
	}
	pr := sa.Rules["patient"]
	if len(pr.Guards) != 2 {
		t.Fatalf("patient has %d guards, want 2", len(pr.Guards))
	}
	// Static simplification (Fig. 3): the key member of patient collects
	// only from bill — the treatments subtree cannot contain items.
	expr, ok := pr.Syn.Exprs["k0"]
	if !ok {
		t.Fatal("patient has no rule for k0")
	}
	if got := expr.String(); !strings.Contains(got, "bill") || strings.Contains(got, "treatments") {
		t.Errorf("k0 rule should collect from bill only, got %s", got)
	}

	// Evaluation succeeds (the tiny data satisfies both constraints) and
	// produces the same document as the unspecialized grammar.
	env := hospital.EnvFor(cat)
	want, err := hospital.Sigma0(false).Eval(env, hospital.RootInh(a, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sa.Eval(env, hospital.RootInh(sa, "d1"))
	if err != nil {
		t.Fatalf("guarded evaluation failed: %v", err)
	}
	if !want.Equal(got) {
		t.Errorf("constraint compilation changed the document:\n%s\n%s", want, got)
	}
}

// mutateCatalog applies a named mutation to the tiny catalog and reports
// whether the constraints should then be violated on date d1.
func mutations(t *testing.T) map[string]func(cat *relstore.Catalog) {
	t.Helper()
	return map[string]func(cat *relstore.Catalog){
		// Removing t4 from billing breaks the inclusion constraint: the
		// nested treatment t4 has no bill item.
		"drop-billing-row": func(cat *relstore.Catalog) {
			billing, err := cat.Table("DB3", "billing")
			if err != nil {
				t.Fatal(err)
			}
			clean := relstore.NewTable("billing", billing.Schema())
			for _, row := range billing.Rows() {
				if row[0].AsString() != "t4" {
					clean.MustInsert(row)
				}
			}
			db, _ := cat.Database("DB3")
			db.AddTable(clean)
		},
		// A duplicate billing row for t1 breaks the key: two items with
		// the same trId under one patient.
		"dup-billing-row": func(cat *relstore.Catalog) {
			billing, err := cat.Table("DB3", "billing")
			if err != nil {
				t.Fatal(err)
			}
			billing.MustInsert(relstore.Tuple{relstore.String("t1"), relstore.Int(101)})
		},
	}
}

// TestGuardsAgreeWithDirectChecker: for each data mutation, the guarded
// evaluation aborts exactly when the independent tree checker finds a
// violation in the unguarded output.
func TestGuardsAgreeWithDirectChecker(t *testing.T) {
	for name, mutate := range mutations(t) {
		t.Run(name, func(t *testing.T) {
			cat := hospital.TinyCatalog()
			mutate(cat)
			env := hospital.EnvFor(cat)

			plain := hospital.Sigma0(true)
			doc, err := plain.Eval(env, hospital.RootInh(plain, "d1"))
			if err != nil {
				t.Fatalf("unguarded evaluation failed: %v", err)
			}
			directViolated := len(xconstraint.CheckAll(plain.Constraints, doc)) > 0

			guarded, err := CompileConstraints(plain)
			if err != nil {
				t.Fatal(err)
			}
			_, err = guarded.Eval(env, hospital.RootInh(guarded, "d1"))
			guardAborted := err != nil
			if guardAborted != directViolated {
				t.Errorf("guard aborted=%v but direct checker violated=%v (err=%v)", guardAborted, directViolated, err)
			}
			if guardAborted {
				var abort *aig.AbortError
				if !asAbort(err, &abort) {
					t.Errorf("abort error has wrong type: %T %v", err, err)
				} else if abort.Elem != "patient" {
					t.Errorf("guard fired at %s, want patient", abort.Elem)
				}
			}
		})
	}
}

func asAbort(err error, target **aig.AbortError) bool {
	for err != nil {
		if ae, ok := err.(*aig.AbortError); ok {
			*target = ae
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestDecomposeQ2(t *testing.T) {
	cat := hospital.TinyCatalog()
	schemas := sqlmini.CatalogSchemas{Catalog: cat}
	stats := sqlmini.CatalogStats{Catalog: cat}
	q := sqlmini.MustParse(hospital.Q2)
	params := sqlmini.ParamSchemas{"v": relstore.MustSchema("date:string", "SSN:string", "policy:string")}

	chain, err := Decompose(q, schemas, params, stats, sqlmini.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) < 2 {
		t.Fatalf("Q2 decomposed into %d steps, want >= 2:\n%v", len(chain), chain)
	}
	for i, step := range chain {
		if srcs := step.Sources(); len(srcs) != 1 {
			t.Errorf("step %d references %v", i+1, srcs)
		}
	}

	// The chain computes the same result as the direct query for every
	// parameter binding.
	for _, v := range [][]string{
		{"d1", "s1", "gold"},
		{"d1", "s2", "silver"},
		{"d2", "s2", "silver"},
		{"d9", "s1", "gold"},
	} {
		bind := sqlmini.Params{"v": sqlmini.ScalarBinding(
			[]string{"date", "SSN", "policy"},
			relstore.Tuple{relstore.String(v[0]), relstore.String(v[1]), relstore.String(v[2])})}
		want, err := sqlmini.Run(q, schemas, sqlmini.CatalogData{Catalog: cat}, stats, bind, sqlmini.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var prev sqlmini.Binding
		for i, step := range chain {
			p := sqlmini.Params{}
			for k, b := range bind {
				p[k] = b
			}
			if i > 0 {
				p[aig.PrevParam] = prev
			}
			prev, err = sqlmini.Run(step, schemas, sqlmini.CatalogData{Catalog: cat}, stats, p, sqlmini.PlanOptions{})
			if err != nil {
				t.Fatalf("step %d (%s): %v", i+1, step, err)
			}
		}
		if !want.Equal(prev) {
			t.Errorf("params %v: chain result differs:\ndirect: %v\nchain:  %v", v, want, prev)
		}
	}
}

func TestDecomposeSingleSourceIsIdentity(t *testing.T) {
	cat := hospital.TinyCatalog()
	q := sqlmini.MustParse(hospital.Q3)
	params := sqlmini.ParamSchemas{"v": relstore.MustSchema("trId:string")}
	chain, err := Decompose(q, sqlmini.CatalogSchemas{Catalog: cat}, params, sqlmini.CatalogStats{Catalog: cat}, sqlmini.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 {
		t.Fatalf("single-source query decomposed into %d steps", len(chain))
	}
	if chain[0].String() != q.String() {
		t.Errorf("identity decomposition changed the query:\n%s\n%s", q, chain[0])
	}
}

func TestDecomposedAIGProducesSameDocument(t *testing.T) {
	cat := hospital.TinyCatalog()
	env := hospital.EnvFor(cat)
	orig := hospital.Sigma0(false)
	want, err := orig.Eval(env, hospital.RootInh(orig, "d1"))
	if err != nil {
		t.Fatal(err)
	}

	dec, err := DecomposeQueries(orig, sqlmini.CatalogSchemas{Catalog: cat}, sqlmini.CatalogStats{Catalog: cat}, sqlmini.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Validate(sqlmini.CatalogSchemas{Catalog: cat}); err != nil {
		t.Fatalf("decomposed AIG invalid: %v", err)
	}
	// Q2 must now be a chain.
	if ir := dec.Rules["treatments"].Inh["treatment"]; ir.Query != nil || len(ir.Chain) < 2 {
		t.Fatalf("treatments rule not decomposed: query=%v chain=%d", ir.Query, len(ir.Chain))
	}
	got, err := dec.Eval(env, hospital.RootInh(dec, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Errorf("decomposition changed the document:\n%s\n%s", want, got)
	}
}

func TestUnfoldDeepEnoughMatchesRecursive(t *testing.T) {
	cat := hospital.TinyCatalog()
	env := hospital.EnvFor(cat)
	orig := hospital.Sigma0(false)
	want, err := orig.Eval(env, hospital.RootInh(orig, "d1"))
	if err != nil {
		t.Fatal(err)
	}

	// Tiny data nests treatments 3 deep (t2 -> t4 -> t5); depth 4 covers it.
	unf, err := Unfold(orig, 4)
	if err != nil {
		t.Fatal(err)
	}
	if unf.DTD.IsRecursive() {
		t.Fatal("unfolded DTD is still recursive")
	}
	if err := unf.Validate(sqlmini.CatalogSchemas{Catalog: cat}); err != nil {
		t.Fatalf("unfolded AIG invalid: %v", err)
	}
	got, err := unf.Eval(env, hospital.RootInh(unf, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Errorf("unfolding changed the document:\nwant:\n%s\ngot:\n%s", want, got)
	}
	// The unfolded output still conforms to the ORIGINAL DTD thanks to
	// label mapping.
	if err := dtd.Conforms(orig.DTD, got); err != nil {
		t.Errorf("unfolded output violates original DTD: %v", err)
	}
}

func TestUnfoldTruncates(t *testing.T) {
	cat := hospital.TinyCatalog()
	env := hospital.EnvFor(cat)
	orig := hospital.Sigma0(false)

	unf, err := Unfold(orig, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unf.Eval(env, hospital.RootInh(unf, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	// At depth 1 no nested treatments appear: every procedure is empty.
	for _, proc := range got.Descendants("procedure") {
		if len(proc.Children) != 0 {
			t.Fatalf("depth-1 unfolding kept nested treatments:\n%s", got)
		}
	}
	if err := dtd.Conforms(orig.DTD, got); err != nil {
		t.Errorf("truncated output violates original DTD: %v", err)
	}
	// Depth 2 keeps one nesting level (t4) but drops the next (t5).
	unf2, err := Unfold(orig, 2)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := unf2.Eval(env, hospital.RootInh(unf2, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, tr := range got2.Descendants("trId") {
		ids[tr.StringValue()] = true
	}
	if !ids["t4"] {
		t.Error("depth-2 unfolding lost the first nesting level")
	}
	// t5 appears only as a treatment nested 3 deep; it must be gone from
	// treatments (it may still appear in bills? No: bill items come from
	// collected trIdS, which no longer includes t5).
	for _, tr := range got2.Descendants("treatment") {
		if tr.Child("trId").StringValue() == "t5" {
			t.Error("depth-2 unfolding kept a depth-3 treatment")
		}
	}
}

func TestUnfoldInvalidDepth(t *testing.T) {
	if _, err := Unfold(hospital.Sigma0(false), 0); err == nil {
		t.Error("depth 0 accepted")
	}
}

func TestUnfoldNonRecursiveIsClone(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT a (b)> <!ELEMENT b (#PCDATA)>`)
	a := aig.New(d)
	out, err := Unfold(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Labels) != 0 {
		t.Errorf("non-recursive unfold introduced labels: %v", out.Labels)
	}
}

func TestFullPipelineCompileUnfoldDecompose(t *testing.T) {
	cat := hospital.TinyCatalog()
	env := hospital.EnvFor(cat)
	schemas := sqlmini.CatalogSchemas{Catalog: cat}
	stats := sqlmini.CatalogStats{Catalog: cat}

	a := hospital.Sigma0(true)
	sa, err := CompileConstraints(a)
	if err != nil {
		t.Fatal(err)
	}
	sa, err = Unfold(sa, 5)
	if err != nil {
		t.Fatal(err)
	}
	sa, err = DecomposeQueries(sa, schemas, stats, sqlmini.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.Validate(schemas); err != nil {
		t.Fatalf("pipeline output invalid: %v", err)
	}
	got, err := sa.Eval(env, hospital.RootInh(sa, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := hospital.Sigma0(false).Eval(env, hospital.RootInh(a, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Errorf("full pipeline changed the document:\n%s\n%s", want, got)
	}
	if err := dtd.Conforms(a.DTD, got); err != nil {
		t.Error(err)
	}
	if v := xconstraint.CheckAll(hospital.Constraints(), got); len(v) != 0 {
		t.Errorf("pipeline output violates constraints: %v", v)
	}
}
