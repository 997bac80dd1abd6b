package aig_test

import (
	"strings"
	"testing"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/sqlmini"
	"github.com/aigrepro/aig/internal/xconstraint"
	"github.com/aigrepro/aig/internal/xmltree"
)

func TestSigma0Validates(t *testing.T) {
	a := hospital.Sigma0(true)
	cat := hospital.TinyCatalog()
	if err := a.Validate(sqlmini.CatalogSchemas{Catalog: cat}); err != nil {
		t.Fatalf("σ0 fails validation: %v", err)
	}
}

func TestSigma0EvalD1(t *testing.T) {
	a := hospital.Sigma0(true)
	cat := hospital.TinyCatalog()
	env := hospital.EnvFor(cat)
	env.Counters = &aig.Counters{}

	doc, err := a.Eval(env, hospital.RootInh(a, "d1"))
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}

	// The output conforms to the DTD...
	if err := dtd.Conforms(a.DTD, doc); err != nil {
		t.Errorf("output violates DTD: %v\n%s", err, doc)
	}
	// ...and satisfies the constraints (checked independently).
	if v := xconstraint.CheckAll(a.Constraints, doc); len(v) != 0 {
		t.Errorf("output violates constraints: %v", v)
	}

	patients := doc.Descendants("patient")
	if len(patients) != 3 {
		t.Fatalf("%d patients, want 3 (alice, bob, carol)\n%s", len(patients), doc)
	}

	var alice *xmltree.Node
	for _, p := range patients {
		if p.Child("pname").StringValue() == "alice" {
			alice = p
		}
	}
	if alice == nil {
		t.Fatal("alice missing")
	}

	// Alice: treatments t1 and t2; t2's procedure nests t4, which nests t5.
	top := alice.Child("treatments").Elements()
	if len(top) != 2 {
		t.Fatalf("alice has %d top-level treatments, want 2\n%s", len(top), alice)
	}
	ids := []string{top[0].Child("trId").StringValue(), top[1].Child("trId").StringValue()}
	if ids[0] != "t1" || ids[1] != "t2" {
		t.Errorf("alice treatment ids = %v (sorted order expected)", ids)
	}
	t2 := top[1]
	nested := t2.Child("procedure").Elements()
	if len(nested) != 1 || nested[0].Child("trId").StringValue() != "t4" {
		t.Fatalf("t2 procedure = %v", nested)
	}
	deep := nested[0].Child("procedure").Elements()
	if len(deep) != 1 || deep[0].Child("trId").StringValue() != "t5" {
		t.Fatalf("t4 procedure = %v", deep)
	}
	if len(deep[0].Child("procedure").Elements()) != 0 {
		t.Error("t5 should have an empty procedure")
	}

	// Alice's bill covers exactly {t1, t2, t4, t5} with billing prices —
	// context-dependent construction driven by the synthesized trIdS.
	items := alice.Child("bill").Elements()
	var got []string
	for _, it := range items {
		got = append(got, it.Child("trId").StringValue()+":"+it.Child("price").StringValue())
	}
	want := "t1:100,t2:250,t4:999,t5:40"
	if strings.Join(got, ",") != want {
		t.Errorf("alice bill = %v, want %s", got, want)
	}

	// Counters moved.
	if env.Counters.QueriesRun == 0 || env.Counters.NodesCreated == 0 {
		t.Error("counters not incremented")
	}
}

func TestSigma0EvalD2(t *testing.T) {
	a := hospital.Sigma0(false)
	cat := hospital.TinyCatalog()
	doc, err := a.Eval(hospital.EnvFor(cat), hospital.RootInh(a, "d2"))
	if err != nil {
		t.Fatal(err)
	}
	patients := doc.Descendants("patient")
	// Only bob visited on d2.
	if len(patients) != 1 || patients[0].Child("pname").StringValue() != "bob" {
		t.Fatalf("d2 patients wrong:\n%s", doc)
	}
	// bob (silver) visited t1 on d2; silver covers t1.
	if got := patients[0].Child("treatments").Elements(); len(got) != 1 || got[0].Child("trId").StringValue() != "t1" {
		t.Errorf("bob treatments wrong:\n%s", patients[0])
	}
}

func TestSigma0EvalEmptyDate(t *testing.T) {
	a := hospital.Sigma0(false)
	cat := hospital.TinyCatalog()
	doc, err := a.Eval(hospital.EnvFor(cat), hospital.RootInh(a, "d999"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Descendants("patient")) != 0 {
		t.Errorf("no-visit date produced patients:\n%s", doc)
	}
	if err := dtd.Conforms(a.DTD, doc); err != nil {
		t.Errorf("empty report violates DTD: %v", err)
	}
}

func TestEvalIsDeterministic(t *testing.T) {
	a := hospital.Sigma0(false)
	cat := hospital.TinyCatalog()
	env := hospital.EnvFor(cat)
	d1, err := a.Eval(env, hospital.RootInh(a, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := a.Eval(env, hospital.RootInh(a, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Equal(d2) {
		t.Error("two evaluations differ")
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	a := hospital.Sigma0(false)
	cat := hospital.TinyCatalog()
	// Make the procedure hierarchy cyclic: t5's procedure contains t2,
	// closing a loop t2 -> t4 -> t5 -> t2.
	proc, err := cat.Table("DB4", "procedure")
	if err != nil {
		t.Fatal(err)
	}
	proc.MustInsert(relstore.Tuple{relstore.String("t5"), relstore.String("t2")})

	env := hospital.EnvFor(cat)
	env.MaxDepth = 40
	_, err = a.Eval(env, hospital.RootInh(a, "d1"))
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("cyclic data did not hit the depth limit: %v", err)
	}
}

func TestGuardAbortsEvaluation(t *testing.T) {
	// Attach a unique() guard over a bag that will contain duplicates:
	// collect every item trId under the report (t3 appears for bob and
	// carol), so the guard must fire.
	a := hospital.Sigma0(false)
	a.Syn["item"] = aig.Attr(aig.BagMember("B", "trId:string"))
	a.Rules["item"].Syn = aig.Syn1("B", aig.SingletonOf{Srcs: []aig.SourceRef{aig.SynOf("trId", "val")}})
	a.Syn["bill"] = aig.Attr(aig.BagMember("B", "trId:string"))
	a.Rules["bill"].Syn = aig.Syn1("B", aig.CollectChildren{Child: "item", Member: "B"})
	a.Syn["patient"] = aig.Attr(aig.BagMember("B", "trId:string"))
	a.Rules["patient"].Syn = aig.Syn1("B", aig.CollectionOf{Src: aig.SynOf("bill", "B")})
	a.Syn["report"] = aig.Attr(aig.BagMember("B", "trId:string"))
	a.Rules["report"].Syn = aig.Syn1("B", aig.CollectChildren{Child: "patient", Member: "B"})
	a.Rules["report"].Guards = []aig.Guard{{
		Kind:   aig.GuardUnique,
		Member: "B",
		Origin: xconstraint.MustParse("report(item.trId -> item)"),
	}}
	cat := hospital.TinyCatalog()
	if err := a.Validate(sqlmini.CatalogSchemas{Catalog: cat}); err != nil {
		t.Fatalf("modified AIG invalid: %v", err)
	}
	_, err := a.Eval(hospital.EnvFor(cat), hospital.RootInh(a, "d1"))
	var abort *aig.AbortError
	if err == nil {
		t.Fatal("evaluation succeeded despite duplicate keys at report scope")
	}
	if !errorsAs(err, &abort) {
		t.Fatalf("error is %T (%v), want *AbortError", err, err)
	}
	if abort.Elem != "report" {
		t.Errorf("abort at %q, want report", abort.Elem)
	}
	if !strings.Contains(abort.Error(), "unique") {
		t.Errorf("abort message: %v", abort)
	}
}

// errorsAs avoids importing errors just for one call.
func errorsAs(err error, target **aig.AbortError) bool {
	for err != nil {
		if ae, ok := err.(*aig.AbortError); ok {
			*target = ae
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestChoiceProduction(t *testing.T) {
	// A small grammar with a choice: result -> cheap + pricey, selected by
	// a condition query over the data.
	d := dtd.MustParse(`
		<!ELEMENT result (cheap | pricey)>
		<!ELEMENT cheap (#PCDATA)>
		<!ELEMENT pricey (#PCDATA)>
	`)
	cat := relstore.NewCatalog()
	db := relstore.NewDatabase("DB")
	bands := db.CreateTable("bands", relstore.MustSchema("trId:string", "band:int"))
	bands.MustInsert(relstore.Tuple{relstore.String("t1"), relstore.Int(1)})
	bands.MustInsert(relstore.Tuple{relstore.String("t2"), relstore.Int(2)})
	cat.Add(db)

	a := aig.New(d)
	a.Inh["result"] = aig.Attr(aig.StringMember("trId"))
	a.Inh["cheap"] = aig.Attr(aig.StringMember("val"))
	a.Inh["pricey"] = aig.Attr(aig.StringMember("val"))
	a.Syn["result"] = aig.Attr(aig.StringMember("chosen"))
	a.Syn["cheap"] = aig.Attr(aig.StringMember("v"))
	a.Syn["pricey"] = aig.Attr(aig.StringMember("v"))

	a.Rules["cheap"] = &aig.Rule{Elem: "cheap", TextSrc: aig.InhOf("cheap", "val"),
		Syn: aig.Syn1("v", aig.ScalarOf{Src: aig.InhOf("cheap", "val")})}
	a.Rules["pricey"] = &aig.Rule{Elem: "pricey", TextSrc: aig.InhOf("pricey", "val"),
		Syn: aig.Syn1("v", aig.ScalarOf{Src: aig.InhOf("pricey", "val")})}
	a.Rules["result"] = &aig.Rule{
		Elem:       "result",
		Cond:       sqlmini.MustParse(`select band from DB:bands where trId = $v.trId`),
		CondParams: aig.ParamMap("v", aig.InhOf("result", "")),
		Branches: []aig.Branch{
			{
				Inh: &aig.InhRule{Child: "cheap", Copies: []aig.CopyAssign{aig.Copy("val", aig.InhOf("result", "trId"))}},
				Syn: aig.Syn1("chosen", aig.ScalarOf{Src: aig.SynOf("cheap", "v")}),
			},
			{
				Inh: &aig.InhRule{Child: "pricey", Copies: []aig.CopyAssign{aig.Copy("val", aig.InhOf("result", "trId"))}},
				Syn: aig.Syn1("chosen", aig.ScalarOf{Src: aig.SynOf("pricey", "v")}),
			},
		},
	}
	if err := a.Validate(sqlmini.CatalogSchemas{Catalog: cat}); err != nil {
		t.Fatalf("choice AIG invalid: %v", err)
	}

	env := &aig.Env{
		Schemas: sqlmini.CatalogSchemas{Catalog: cat},
		Data:    sqlmini.CatalogData{Catalog: cat},
		Stats:   sqlmini.CatalogStats{Catalog: cat},
	}
	inh := aig.NewAttrValue(a.Inh["result"])
	if err := inh.SetScalar("trId", relstore.String("t1")); err != nil {
		t.Fatal(err)
	}
	doc, err := a.Eval(env, inh)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Child("cheap") == nil || doc.Child("pricey") != nil {
		t.Errorf("t1 should pick cheap:\n%s", doc)
	}
	if err := dtd.Conforms(d, doc); err != nil {
		t.Error(err)
	}

	if err := inh.SetScalar("trId", relstore.String("t2")); err != nil {
		t.Fatal(err)
	}
	doc, err = a.Eval(env, inh)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Child("pricey") == nil {
		t.Errorf("t2 should pick pricey:\n%s", doc)
	}

	// Out-of-range condition value is an error.
	if err := inh.SetScalar("trId", relstore.String("t9")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Eval(env, inh); err == nil {
		t.Error("missing band row should make the condition query fail")
	}
}

func TestValidateCatchesBadAIGs(t *testing.T) {
	cat := hospital.TinyCatalog()
	schemas := sqlmini.CatalogSchemas{Catalog: cat}

	// Cyclic dependency: treatments depends on bill and bill on treatments.
	a := hospital.Sigma0(false)
	a.Rules["patient"].Inh["treatments"].Copies = append(
		a.Rules["patient"].Inh["treatments"].Copies,
		aig.Copy("date", aig.SynOf("bill", "date")))
	a.Syn["bill"] = aig.Attr(aig.StringMember("date"))
	if err := a.Validate(schemas); err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Errorf("cyclic dependency not caught: %v", err)
	}

	// Unknown member in a copy.
	a = hospital.Sigma0(false)
	a.Rules["patient"].Inh["SSN"].Copies[0].Src = aig.InhOf("patient", "nonexistent")
	if err := a.Validate(schemas); err == nil {
		t.Error("unknown member not caught")
	}

	// Query referencing an unknown table.
	a = hospital.Sigma0(false)
	a.Rules["bill"].Inh["item"].Query = sqlmini.MustParse(`select trId, price from DB3:nope where trId in $V`)
	if err := a.Validate(schemas); err == nil {
		t.Error("unknown table not caught")
	}

	// Query parameter without a source.
	a = hospital.Sigma0(false)
	a.Rules["bill"].Inh["item"].QueryParams = nil
	if err := a.Validate(schemas); err == nil {
		t.Error("unbound parameter not caught")
	}

	// Kind mismatch in a copy (string into int).
	a = hospital.Sigma0(false)
	a.Rules["item"].Inh["price"].Copies[0].Src = aig.InhOf("item", "trId")
	if err := a.Validate(schemas); err == nil {
		t.Error("kind mismatch not caught")
	}

	// Syn rule for an undeclared member.
	a = hospital.Sigma0(false)
	a.Rules["treatments"].Syn = aig.Syn1("nope", aig.EmptyOf{})
	if err := a.Validate(schemas); err == nil {
		t.Error("undeclared Syn member not caught")
	}

	// Scalar member computed by a set expression.
	a = hospital.Sigma0(false)
	a.Rules["trId"].Syn = aig.Syn1("val", aig.EmptyOf{})
	if err := a.Validate(schemas); err == nil {
		t.Error("set expression for scalar member not caught")
	}

	// Syn referencing Inh in a sequence production (§3.1 forbids it).
	a = hospital.Sigma0(false)
	a.Syn["patient"] = aig.Attr(aig.StringMember("d"))
	a.Rules["patient"].Syn = aig.Syn1("d", aig.ScalarOf{Src: aig.InhOf("patient", "date")})
	if err := a.Validate(schemas); err == nil {
		t.Error("Inh reference in sequence Syn rule not caught")
	}

	// Star production without a rule.
	a = hospital.Sigma0(false)
	delete(a.Rules, "report")
	if err := a.Validate(schemas); err == nil {
		t.Error("ruleless star production not caught")
	}

	// Guard on a missing member.
	a = hospital.Sigma0(false)
	a.Rules["patient"].Guards = []aig.Guard{{Kind: aig.GuardUnique, Member: "ghost"}}
	if err := a.Validate(schemas); err == nil {
		t.Error("guard on missing member not caught")
	}
}

func TestSiblingOrderRespectsDependencies(t *testing.T) {
	a := hospital.Sigma0(false)
	order, err := a.SiblingOrder("patient")
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int, len(order))
	for i, e := range order {
		pos[e] = i
	}
	if pos["bill"] < pos["treatments"] {
		t.Errorf("bill must evaluate after treatments: %v", order)
	}
	if len(order) != 4 {
		t.Errorf("order = %v", order)
	}
	if _, err := a.SiblingOrder("report"); err == nil {
		t.Error("SiblingOrder on a star production should error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := hospital.Sigma0(true)
	c := a.Clone()
	c.Rules["bill"].Inh["item"].Query.From[0].Source = "DB9"
	c.Inh["report"] = aig.Attr(aig.StringMember("other"))
	c.DTD.DefineText("extra")
	if a.Rules["bill"].Inh["item"].Query.From[0].Source != "DB3" {
		t.Error("Clone shares query ASTs")
	}
	if a.Inh["report"].Members[0].Name != "date" {
		t.Error("Clone shares attribute maps")
	}
	if _, ok := a.DTD.Production("extra"); ok {
		t.Error("Clone shares the DTD")
	}
	cat := hospital.TinyCatalog()
	if err := a.Validate(sqlmini.CatalogSchemas{Catalog: cat}); err != nil {
		t.Errorf("original invalid after clone mutation: %v", err)
	}
}

func TestQueriesEnumeration(t *testing.T) {
	a := hospital.Sigma0(false)
	qs := a.Queries()
	// Q1 (report), Q2 (treatments), Q3 (procedure), Q4 (bill).
	if len(qs) != 4 {
		t.Fatalf("Queries() returned %d, want 4", len(qs))
	}
	multi := 0
	for _, q := range qs {
		if len(q.Query.Sources()) > 1 {
			multi++
		}
	}
	if multi != 1 {
		t.Errorf("%d multi-source queries, want 1 (Q2)", multi)
	}
}

func TestAttrValueOps(t *testing.T) {
	decl := aig.Attr(aig.StringMember("a"), aig.ScalarMember("n", relstore.KindInt),
		aig.SetMember("s", "x:string"), aig.BagMember("b", "y:int"))
	v := aig.NewAttrValue(decl)
	if err := v.SetScalar("a", relstore.String("hello")); err != nil {
		t.Fatal(err)
	}
	if err := v.SetScalar("missing", relstore.Null); err == nil {
		t.Error("SetScalar on missing member succeeded")
	}
	if err := v.SetCollection("s", []relstore.Tuple{{relstore.String("p")}, {relstore.String("p")}}); err != nil {
		t.Fatal(err)
	}
	s, err := v.Collection("s")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 1 {
		t.Errorf("set member kept duplicates: %d rows", len(s.Rows))
	}
	if err := v.SetCollection("b", []relstore.Tuple{{relstore.Int(1)}, {relstore.Int(1)}}); err != nil {
		t.Fatal(err)
	}
	b, _ := v.Collection("b")
	if len(b.Rows) != 2 {
		t.Errorf("bag member dropped duplicates: %d rows", len(b.Rows))
	}
	if err := v.SetCollection("a", nil); err == nil {
		t.Error("SetCollection on scalar succeeded")
	}
	// Binding of scalars: (a, n) in declaration order.
	bind := v.ScalarBinding()
	if len(bind.Schema) != 2 || bind.Schema[0].Name != "a" || len(bind.Rows) != 1 {
		t.Errorf("ScalarBinding = %+v", bind)
	}
	cl := v.Clone()
	if !cl.Equal(v) {
		t.Error("clone not equal")
	}
	if err := cl.SetScalar("a", relstore.String("bye")); err != nil {
		t.Fatal(err)
	}
	if cl.Equal(v) {
		t.Error("mutated clone still equal")
	}
	if !strings.Contains(v.String(), "a='hello'") {
		t.Errorf("String() = %s", v)
	}
}
