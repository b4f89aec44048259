package core

import (
	"context"
	"math/rand"
	"testing"

	"qpiad/internal/afd"
	"qpiad/internal/nbc"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// nullBindingFixture is the standard fixture but with a source that allows
// null binding (the Figure 8 "even when null value selections are allowed"
// setting).
func nullBindingFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	gd := buildCarsGD(4000, 1)
	ed, truth := makeIncomplete(gd, "body_style", 0.10, 2)
	src := source.New("cars", ed, source.Capabilities{AllowNullBinding: true})
	rng := rand.New(rand.NewSource(3))
	smpl := ed.Sample(600, rng)
	k, err := MineKnowledge("cars", smpl, float64(ed.Len())/float64(smpl.Len()),
		smpl.IncompleteFraction(),
		KnowledgeConfig{AFD: afd.Config{MinSupport: 5}, Predictor: nbc.PredictorConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	m := New(cfg)
	m.Register(src, k)
	return &fixture{gd: gd, ed: ed, truth: truth, src: src, k: k, m: m, sample: smpl,
		idCol: gd.Schema.MustIndex("id")}
}

// TestNullBindingReducesTransfer verifies the step 2(e) conditional: when
// the source accepts null bindings, rewritten queries bind IS NULL and
// transfer only candidate incomplete tuples.
func TestNullBindingReducesTransfer(t *testing.T) {
	q := convtQuery()

	fNo := newFixture(t, Config{Alpha: 0, K: 5})
	rsNo, err := fNo.m.QuerySelect("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	fYes := nullBindingFixture(t, Config{Alpha: 0, K: 5})
	rsYes, err := fYes.m.QuerySelect("cars", q)
	if err != nil {
		t.Fatal(err)
	}

	transfer := func(rs *ResultSet) int {
		n := 0
		for _, rq := range rs.Issued {
			n += rq.Transferred
		}
		return n
	}
	tn, ty := transfer(rsNo), transfer(rsYes)
	if ty >= tn {
		t.Errorf("null binding should cut transfers: with=%d without=%d", ty, tn)
	}
	// With null binding, every transferred tuple survives post-filtering.
	for _, rq := range rsYes.Issued {
		if rq.Kept > rq.Transferred {
			t.Fatalf("kept %d > transferred %d", rq.Kept, rq.Transferred)
		}
	}
}

// TestNullBindingSameAnswers verifies the optimization is result-invariant:
// both modes return the same possible-answer set in the same order.
func TestNullBindingSameAnswers(t *testing.T) {
	q := convtQuery()
	fNo := newFixture(t, Config{Alpha: 0, K: 0})
	fYes := nullBindingFixture(t, Config{Alpha: 0, K: 0})
	rsNo, err := fNo.m.QuerySelect("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	rsYes, err := fYes.m.QuerySelect("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rsNo.Possible) != len(rsYes.Possible) {
		t.Fatalf("answer counts differ: %d vs %d", len(rsNo.Possible), len(rsYes.Possible))
	}
	for i := range rsNo.Possible {
		if !rsNo.Possible[i].Tuple.Equal(rsYes.Possible[i].Tuple) {
			t.Fatalf("answer %d differs", i)
		}
	}
}

// TestNullBindingNoDuplicateAnswers guards the seeding of the fold's answer
// set. Under body_style IS NULL ∧ make = m every certain answer is null on
// body_style, and with null binding the body_style-target rewrites fetch
// every one of them again. Neither the batch nor the streaming executor may
// return such a tuple twice across certain, possible and unranked answers.
func TestNullBindingNoDuplicateAnswers(t *testing.T) {
	f := nullBindingFixture(t, Config{Alpha: 0, K: 0, NoCache: true})
	noDuplicates := func(what string, tuples []relation.Tuple) {
		t.Helper()
		seen := make(map[string]bool, len(tuples))
		for _, tp := range tuples {
			if seen[tp.Key()] {
				t.Fatalf("%s: %v answered twice", what, tp)
			}
			seen[tp.Key()] = true
		}
	}
	refetched := 0
	for _, spec := range testModels {
		q := relation.NewQuery("cars", relation.IsNull("body_style"), relation.Eq("make", relation.String(spec.make)))
		rs, err := f.m.QuerySelect("cars", q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Certain) == 0 {
			t.Fatalf("%s: no certain answers", spec.make)
		}
		var batch []relation.Tuple
		for _, a := range rs.AllAnswers() {
			batch = append(batch, a.Tuple)
		}
		noDuplicates("batch "+spec.make, batch)
		for _, rq := range rs.Issued {
			if rq.TargetAttr == "body_style" {
				refetched += rq.Transferred - rq.Kept
			}
		}

		events, err := f.m.SelectStream(context.Background(), "cars", q)
		if err != nil {
			t.Fatal(err)
		}
		answers, _, sum := collectStream(t, events)
		if sum == nil {
			t.Fatalf("%s: stream ended without a summary", spec.make)
		}
		var streamed []relation.Tuple
		for _, ev := range answers {
			for _, a := range ev.Answers {
				streamed = append(streamed, a.Tuple)
			}
		}
		noDuplicates("stream "+spec.make, streamed)
		if len(streamed) != len(batch) {
			t.Fatalf("%s: stream answered %d tuples, batch %d", spec.make, len(streamed), len(batch))
		}
	}
	// Null binding transfers only body_style-null tuples, so whatever a
	// body_style rewrite transferred but did not keep was already answered.
	if refetched == 0 {
		t.Fatal("no body_style rewrite fetched an answer again: the test no longer exercises the seeding")
	}
}

// TestIssuedQueryNeverBindsNullOnRestrictedSource re-checks the invariant
// through the source's own accounting: a form-only source must never see a
// null binding from QPIAD.
func TestIssuedQueryNeverBindsNullOnRestrictedSource(t *testing.T) {
	f := newFixture(t, Config{Alpha: 1, K: 0})
	if _, err := f.m.QuerySelect("cars", convtQuery()); err != nil {
		t.Fatal(err)
	}
	if rej := f.src.Stats().Rejected; rej != 0 {
		t.Errorf("source rejected %d queries; QPIAD must stay within capabilities", rej)
	}
}

func TestOrderingString(t *testing.T) {
	if OrderFMeasure.String() != "f-measure" ||
		OrderSelectivity.String() != "selectivity" ||
		OrderArbitrary.String() != "arbitrary" {
		t.Error("ordering names")
	}
}

func TestScoreAndSelectOrderingPolicies(t *testing.T) {
	cands := []RewrittenQuery{
		{Query: relation.NewQuery("r", relation.Eq("x", relation.String("a"))), Precision: 0.9, EstSel: 1},
		{Query: relation.NewQuery("r", relation.Eq("x", relation.String("b"))), Precision: 0.2, EstSel: 100},
	}
	sel := ScoreAndSelect(append([]RewrittenQuery{}, cands...), 0, 1, OrderSelectivity)
	if sel[0].EstSel != 100 {
		t.Error("selectivity ordering should pick the high-selectivity query")
	}
	arb := ScoreAndSelect(append([]RewrittenQuery{}, cands...), 0, 2, OrderArbitrary)
	if arb[0].Query.Key() > arb[1].Query.Key() {
		t.Error("arbitrary ordering should be key-sorted")
	}
	fm := ScoreAndSelect(append([]RewrittenQuery{}, cands...), 0, 1, OrderFMeasure)
	if fm[0].Precision != 0.9 {
		t.Error("α=0 f-measure ordering should pick the precise query")
	}
}
