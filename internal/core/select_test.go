package core

import (
	"context"
	"testing"

	"qpiad/internal/relation"
)

func convtQuery() relation.Query {
	return relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))
}

func TestQuerySelectCertainAnswers(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	rs, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}
	// Every certain answer exactly satisfies the query.
	for _, a := range rs.Certain {
		if !convtQuery().Matches(f.ed.Schema, a.Tuple) {
			t.Fatalf("non-matching certain answer: %v", a.Tuple)
		}
		if !a.Certain || a.Confidence != 1 {
			t.Fatal("certain answers must have Certain=true, Confidence=1")
		}
	}
	// And all of them are returned.
	want := f.ed.Count(convtQuery())
	if len(rs.Certain) != want {
		t.Errorf("certain answers = %d, want %d", len(rs.Certain), want)
	}
}

func TestQuerySelectPossibleAnswersAreNullOnTarget(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	rs, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Possible) == 0 {
		t.Fatal("expected possible answers")
	}
	col := f.ed.Schema.MustIndex("body_style")
	for _, a := range rs.Possible {
		if !a.Tuple[col].IsNull() {
			t.Fatalf("possible answer not null on target: %v", a.Tuple)
		}
		if a.Certain {
			t.Fatal("possible answer marked certain")
		}
		if a.Confidence <= 0 || a.Confidence > 1 {
			t.Fatalf("confidence out of range: %v", a.Confidence)
		}
		if a.Explanation == "" {
			t.Fatal("possible answers must carry an explanation")
		}
	}
}

func TestQuerySelectHighPrecision(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	rs, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}
	pred := relation.Eq("body_style", relation.String("Convt")).Value
	_ = pred
	p := f.precisionOf(rs.Possible, convtQuery().Preds[0])
	// Ranked possible answers come from high-precision rewrites (Z4,
	// Boxster, A4 models); planted correlations put true precision ≈ 0.9.
	if p < 0.6 {
		t.Errorf("precision of possible answers = %v, want >= 0.6", p)
	}
}

func TestQuerySelectRankingIsMonotone(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	rs, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rs.Possible); i++ {
		if rs.Possible[i-1].Confidence < rs.Possible[i].Confidence {
			t.Fatal("possible answers not in descending confidence order")
		}
	}
	// Issued queries are in descending precision order (step 2c).
	for i := 1; i < len(rs.Issued); i++ {
		if rs.Issued[i-1].Precision < rs.Issued[i].Precision {
			t.Fatal("issued rewrites not in descending precision order")
		}
	}
}

func TestQuerySelectRespectsK(t *testing.T) {
	f := newFixture(t, Config{Alpha: 0, K: 3})
	rs, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Issued) > 3 {
		t.Errorf("issued %d rewrites, K=3", len(rs.Issued))
	}
	if rs.Generated < len(rs.Issued) {
		t.Error("Generated must count all candidates")
	}
	// Query accounting: base + issued.
	if got := f.src.Stats().Queries; got != 1+len(rs.Issued) {
		t.Errorf("source saw %d queries, want %d", got, 1+len(rs.Issued))
	}
}

func TestQuerySelectUnlimitedK(t *testing.T) {
	f := newFixture(t, Config{Alpha: 0, K: 0})
	rs, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Issued) != rs.Generated {
		t.Errorf("K<=0 should issue all %d candidates, issued %d", rs.Generated, len(rs.Issued))
	}
}

func TestRewritesNeverConstrainTargetOrBindNull(t *testing.T) {
	f := newFixture(t, Config{Alpha: 1, K: 0})
	rs, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Issued) == 0 {
		t.Fatal("expected rewrites")
	}
	for _, rq := range rs.Issued {
		for _, p := range rq.Query.Preds {
			if p.Attr == rq.TargetAttr {
				t.Fatalf("rewrite constrains its target: %v", rq.Query)
			}
			if p.Op == relation.OpIsNull {
				t.Fatalf("rewrite binds null: %v", rq.Query)
			}
			if p.Value.IsNull() {
				t.Fatalf("rewrite carries null constant: %v", rq.Query)
			}
		}
	}
}

func TestRewritesUseDeterminingSet(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	rs, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}
	best, ok := f.k.AFDs.Best("body_style")
	if !ok {
		t.Fatal("no AFD for body_style in fixture")
	}
	// The planted dependency is model ~> body_style; make ~> body_style is
	// equivalent because make↔model is bijective in the fixture.
	if len(best.Determining) != 1 ||
		(best.Determining[0] != "model" && best.Determining[0] != "make") {
		t.Fatalf("best AFD = %v, want {model} or {make}", best)
	}
	if best.Confidence < 0.85 {
		t.Errorf("best AFD confidence = %v, planted 0.9", best.Confidence)
	}
	for _, rq := range rs.Issued {
		if _, ok := rq.Query.PredOn(best.Determining[0]); !ok {
			t.Fatalf("rewrite lacks determining-set predicate: %v", rq.Query)
		}
	}
}

func TestQuerySelectNoDuplicates(t *testing.T) {
	f := newFixture(t, Config{Alpha: 1, K: 0})
	rs, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, a := range rs.AllAnswers() {
		k := a.Tuple.Key()
		if seen[k] {
			t.Fatalf("duplicate answer: %v", a.Tuple)
		}
		seen[k] = true
	}
}

func TestQuerySelectRecallWithUnlimitedK(t *testing.T) {
	f := newFixture(t, Config{Alpha: 1, K: 0})
	rs, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}
	pred := convtQuery().Preds[0]
	relevant := f.relevantNullCount(pred)
	got := 0
	for _, a := range rs.Possible {
		if f.isRelevant(a, pred) {
			got++
		}
	}
	recall := float64(got) / float64(relevant)
	// With unlimited rewrites every Convt-capable model is probed; recall
	// should be near 1 (bounded by base-set model coverage).
	if recall < 0.8 {
		t.Errorf("recall = %v (%d/%d), want >= 0.8", recall, got, relevant)
	}
}

func TestQuerySelectMultiAttribute(t *testing.T) {
	f := newFixture(t, Config{Alpha: 1, K: 0})
	q := relation.NewQuery("cars",
		relation.Eq("model", relation.String("A4")),
		relation.Between("price", relation.Int(22000), relation.Int(26000)),
	)
	rs, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Issued) == 0 {
		t.Fatal("expected rewrites for multi-attribute query")
	}
	sawModelTarget := false
	for _, rq := range rs.Issued {
		switch rq.TargetAttr {
		case "model":
			sawModelTarget = true
			// The original price constraint must be preserved.
			if _, ok := rq.Query.PredOn("price"); !ok {
				t.Fatalf("model-target rewrite dropped price constraint: %v", rq.Query)
			}
			// And model must not be constrained.
			if _, ok := rq.Query.PredOn("model"); ok {
				t.Fatalf("model-target rewrite still constrains model: %v", rq.Query)
			}
		case "price":
			if _, ok := rq.Query.PredOn("model"); !ok {
				t.Fatalf("price-target rewrite dropped model constraint: %v", rq.Query)
			}
		}
	}
	if !sawModelTarget {
		t.Error("no rewrite targeted model")
	}
	// All possible answers are null on exactly one constrained attribute.
	for _, a := range rs.Possible {
		if n := a.Tuple.NullCountOn(f.ed.Schema, q.ConstrainedAttrs()); n != 1 {
			t.Fatalf("possible answer with %d nulls on constrained attrs", n)
		}
	}
}

func TestQuerySelectErrors(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	if _, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "nope", convtQuery()); err == nil {
		t.Error("unknown source should error")
	}
	m2 := New(DefaultConfig())
	m2.Register(f.src, nil)
	if _, err := m2.QuerySelectWithCtx(context.Background(), m2.Config(), "cars", convtQuery()); err == nil {
		t.Error("missing knowledge should error")
	}
}

func TestQuerySelectNoAFDForTarget(t *testing.T) {
	// Querying an attribute with no mined AFD yields certain answers only.
	f := newFixture(t, DefaultConfig())
	q := relation.NewQuery("cars", relation.Eq("id", relation.Int(17)))
	rs, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Issued) != 0 || len(rs.Possible) != 0 {
		t.Errorf("id queries should not be rewritten: issued=%d possible=%d",
			len(rs.Issued), len(rs.Possible))
	}
	if len(rs.Certain) != 1 {
		t.Errorf("certain = %d, want 1", len(rs.Certain))
	}
}

func TestAllAnswersOrder(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	rs, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}
	all := rs.AllAnswers()
	if len(all) != len(rs.Certain)+len(rs.Possible)+len(rs.Unranked) {
		t.Fatal("AllAnswers length mismatch")
	}
	// Certain answers come first.
	for i := 0; i < len(rs.Certain); i++ {
		if !all[i].Certain {
			t.Fatal("certain answers must precede possible answers")
		}
	}
}

func TestMediatorAccessors(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	if _, ok := f.m.Source("cars"); !ok {
		t.Error("Source(cars) missing")
	}
	if _, ok := f.m.Knowledge("cars"); !ok {
		t.Error("Knowledge(cars) missing")
	}
	if names := f.m.SourceNames(); len(names) != 1 || names[0] != "cars" {
		t.Errorf("SourceNames = %v", names)
	}
}
