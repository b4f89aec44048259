package core

import (
	"math"
	"testing"
	"testing/quick"

	"qpiad/internal/nbc"
	"qpiad/internal/relation"
)

func TestFMeasure(t *testing.T) {
	cases := []struct {
		p, r, alpha, want float64
	}{
		{0.8, 0.2, 0, 0.8}, // α=0 reduces to precision
		{0.5, 0.5, 1, 0.5}, // equal weights, equal P/R
		{1, 0, 0, 0},       // zero recall, α=0: F = P·R·(1)/R ill-defined → 0
		{0, 0.5, 1, 0},     // zero precision
		{0, 0, 1, 0},       // both zero
		{0.6, 0.3, 1, 2 * 0.6 * 0.3 / 0.9},
	}
	for _, c := range cases {
		got := fMeasure(c.p, c.r, c.alpha)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("fMeasure(%v,%v,%v) = %v, want %v", c.p, c.r, c.alpha, got, c.want)
		}
	}
}

// Property: F ∈ [0, max(P,R)] and α=0 reduces exactly to P when R > 0.
func TestFMeasureProperties(t *testing.T) {
	f := func(pi, ri uint8, ai uint8) bool {
		p := float64(pi) / 255
		r := float64(ri) / 255
		alpha := float64(ai) / 64
		fm := fMeasure(p, r, alpha)
		if fm < 0 || math.IsNaN(fm) {
			return false
		}
		if fm > math.Max(p, r)+1e-12 {
			return false
		}
		if r > 0 && math.Abs(fMeasure(p, r, 0)-p) > 1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPredicateMass(t *testing.T) {
	d := nbc.NewDistribution(
		[]relation.Value{relation.Int(10), relation.Int(20), relation.Int(30)},
		[]float64{0.5, 0.3, 0.2},
	)
	if got := PredicateMass(d, relation.Eq("a", relation.Int(20))); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("eq mass = %v", got)
	}
	if got := PredicateMass(d, relation.Between("a", relation.Int(15), relation.Int(35))); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("range mass = %v", got)
	}
	if got := PredicateMass(d, relation.Eq("a", relation.Int(99))); got != 0 {
		t.Errorf("unseen mass = %v", got)
	}
}

func TestScoreAndSelectOrdering(t *testing.T) {
	m := New(Config{Alpha: 0, K: 2})
	cands := []RewrittenQuery{
		{Query: relation.NewQuery("r", relation.Eq("x", relation.String("lowP-highS"))), Precision: 0.3, EstSel: 100},
		{Query: relation.NewQuery("r", relation.Eq("x", relation.String("highP-lowS"))), Precision: 0.9, EstSel: 5},
		{Query: relation.NewQuery("r", relation.Eq("x", relation.String("midP-midS"))), Precision: 0.6, EstSel: 20},
	}
	chosen := scoreAndSelectWith(m.Config(), append([]RewrittenQuery{}, cands...))
	if len(chosen) != 2 {
		t.Fatalf("top-K = %d", len(chosen))
	}
	// α=0: pure precision → highP first, then midP.
	if chosen[0].Precision != 0.9 || chosen[1].Precision != 0.6 {
		t.Errorf("α=0 selection: %v %v", chosen[0].Precision, chosen[1].Precision)
	}

	// α large: throughput dominates → lowP-highS must be selected.
	m2 := New(Config{Alpha: 10, K: 2})
	chosen2 := scoreAndSelectWith(m2.Config(), append([]RewrittenQuery{}, cands...))
	found := false
	for _, c := range chosen2 {
		if c.Precision == 0.3 {
			found = true
		}
	}
	if !found {
		t.Error("high-α selection should include the high-selectivity query")
	}
	// Final ordering is by precision regardless of selection order.
	for i := 1; i < len(chosen2); i++ {
		if chosen2[i-1].Precision < chosen2[i].Precision {
			t.Error("selected queries must be issued in precision order")
		}
	}
}

func TestScoreAndSelectRecallNormalization(t *testing.T) {
	m := New(Config{Alpha: 1, K: 0})
	cands := []RewrittenQuery{
		{Query: relation.NewQuery("r", relation.Eq("x", relation.String("a"))), Precision: 0.5, EstSel: 10},
		{Query: relation.NewQuery("r", relation.Eq("x", relation.String("b"))), Precision: 0.5, EstSel: 30},
	}
	chosen := scoreAndSelectWith(m.Config(), cands)
	sum := 0.0
	for _, c := range chosen {
		sum += c.Recall
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("recalls sum to %v, want 1", sum)
	}
	// The higher-throughput query gets proportionally higher recall.
	var ra, rb float64
	for _, c := range chosen {
		if c.EstSel == 10 {
			ra = c.Recall
		} else {
			rb = c.Recall
		}
	}
	if math.Abs(rb/ra-3) > 1e-9 {
		t.Errorf("recall ratio = %v, want 3", rb/ra)
	}
}

func TestScoreAndSelectEmptyAndZero(t *testing.T) {
	m := New(DefaultConfig())
	if got := scoreAndSelectWith(m.Config(), nil); len(got) != 0 {
		t.Error("empty candidates should return empty")
	}
	zero := []RewrittenQuery{{Query: relation.NewQuery("r", relation.Eq("x", relation.String("a")))}}
	got := scoreAndSelectWith(m.Config(), zero)
	if len(got) != 1 || got[0].F != 0 || got[0].Recall != 0 {
		t.Errorf("zero-throughput candidate: %+v", got[0])
	}
}

func TestGenerateRewritesDeduplicates(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	q := convtQuery()
	base, err := f.src.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	cands := f.m.generateRewrites(f.k, q, base, f.src.Schema())
	seen := map[string]bool{}
	for _, c := range cands {
		k := c.Query.Key()
		if seen[k] {
			t.Fatalf("duplicate rewrite: %v", c.Query)
		}
		seen[k] = true
		if k == q.Key() {
			t.Fatal("rewrite equals the original query")
		}
	}
	// One rewrite per distinct model in the base set (models that are
	// 100% Convt and appear in the base set).
	models := relation.DistinctOn(f.src.Schema(), base, []string{"model"})
	if len(cands) != len(models) {
		t.Errorf("candidates = %d, distinct base models = %d", len(cands), len(models))
	}
}

func TestGenerateRewritesEmptyBase(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Nonexistent")))
	base, err := f.src.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 0 {
		t.Fatal("precondition: empty base set")
	}
	cands := f.m.generateRewrites(f.k, q, base, f.src.Schema())
	if len(cands) != 0 {
		t.Errorf("empty base set should generate no rewrites, got %d", len(cands))
	}
}

func TestRewritePrecisionMatchesPredictor(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	q := convtQuery()
	base, _ := f.src.Query(q)
	cands := f.m.generateRewrites(f.k, q, base, f.src.Schema())
	p := f.k.Predictors["body_style"]
	for _, c := range cands {
		want := p.PredictEvidence(c.Evidence).Prob(relation.String("Convt"))
		if math.Abs(c.Precision-want) > 1e-12 {
			t.Fatalf("precision %v != predictor %v for %v", c.Precision, want, c.Query)
		}
	}
}
