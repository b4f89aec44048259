package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"qpiad/internal/afd"
	"qpiad/internal/breaker"
	"qpiad/internal/faults"
	"qpiad/internal/nbc"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

func countQuery() relation.Query {
	q := convtQuery()
	q.Agg = &relation.Aggregate{Func: relation.AggCount}
	return q
}

func TestAggregateCertainOnly(t *testing.T) {
	f := newFixture(t, Config{Alpha: 1, K: 0})
	ans, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", countQuery(), AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(f.ed.Count(convtQuery()))
	if ans.Certain != want || ans.Total != want || ans.Possible != 0 {
		t.Errorf("certain-only aggregate: %+v, want certain=%v", ans, want)
	}
}

func TestAggregateWithPossibleApproachesTruth(t *testing.T) {
	f := newFixture(t, Config{Alpha: 1, K: 0})
	truth := float64(f.gd.Count(convtQuery()))
	noPred, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", countQuery(), AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	withPred, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", countQuery(), AggOptions{
		IncludePossible: true,
		PredictMissing:  true,
		Rule:            RuleArgmax,
	})
	if err != nil {
		t.Fatal(err)
	}
	if withPred.Possible <= 0 {
		t.Fatal("prediction should contribute possible tuples")
	}
	errNo := math.Abs(noPred.Total - truth)
	errWith := math.Abs(withPred.Total - truth)
	if errWith >= errNo {
		t.Errorf("prediction should improve accuracy: |%v-%v|=%v vs |%v-%v|=%v",
			withPred.Total, truth, errWith, noPred.Total, truth, errNo)
	}
	if len(withPred.Included) == 0 {
		t.Error("Included should list the combined rewrites")
	}
}

// TestAggregateRewriteAccounting pins each included rewrite's transfer
// accounting: it kept at least one of the tuples it transferred, and for
// COUNT(*) the kept tuples are exactly the possible rows.
func TestAggregateRewriteAccounting(t *testing.T) {
	f := newFixture(t, Config{Alpha: 1, K: 0})
	ans, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", countQuery(), AggOptions{
		IncludePossible: true,
		PredictMissing:  true,
		Rule:            RuleArgmax,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Included) == 0 {
		t.Fatal("scenario needs included rewrites")
	}
	kept := 0
	for _, rq := range ans.Included {
		if rq.Kept <= 0 || rq.Kept > rq.Transferred {
			t.Errorf("rewrite %v: kept %d of %d transferred, want 0 < kept <= transferred",
				rq.Query, rq.Kept, rq.Transferred)
		}
		kept += rq.Kept
	}
	if kept != ans.PossibleRows {
		t.Errorf("Σ Kept = %d, want the %d possible rows COUNT(*) folded", kept, ans.PossibleRows)
	}
}

func TestAggregateArgmaxExcludesUnlikelyRewrites(t *testing.T) {
	f := newFixture(t, Config{Alpha: 1, K: 0})
	// Query for Coupe: the only models with Coupe mass (Z4 at 0.05,
	// Civic at 0.15) have a different argmax, so no rewrite qualifies.
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Coupe")))
	q.Agg = &relation.Aggregate{Func: relation.AggCount}
	ans, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", q, AggOptions{IncludePossible: true, Rule: RuleArgmax})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Possible != 0 {
		t.Errorf("argmax rule should exclude all Coupe rewrites, got %v from %d queries",
			ans.Possible, len(ans.Included))
	}
}

func TestAggregateFractionalRule(t *testing.T) {
	f := newFixture(t, Config{Alpha: 1, K: 0})
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Coupe")))
	q.Agg = &relation.Aggregate{Func: relation.AggCount}
	ans, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", q, AggOptions{IncludePossible: true, Rule: RuleFractional})
	if err != nil {
		t.Fatal(err)
	}
	// Fractional rule lets low-precision rewrites contribute partially.
	if ans.Possible <= 0 {
		t.Error("fractional rule should contribute for Coupe")
	}
}

func TestAggregateSumWithPrediction(t *testing.T) {
	f := newFixtureAttr(t, Config{Alpha: 1, K: 0}, "price")
	// Sum of prices for Civic with ~10% of prices missing.
	q := relation.NewQuery("cars", relation.Eq("model", relation.String("Civic")))
	q.Agg = &relation.Aggregate{Func: relation.AggSum, Attr: "price"}
	truthQ := q.Clone()
	truthRes, err := f.gd.Aggregate(truthQ)
	if err != nil {
		t.Fatal(err)
	}
	noPred, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", q, AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	withPred, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", q, AggOptions{PredictMissing: true})
	if err != nil {
		t.Fatal(err)
	}
	errNo := math.Abs(noPred.Total - truthRes.Value)
	errWith := math.Abs(withPred.Total - truthRes.Value)
	if errWith >= errNo {
		t.Errorf("price prediction should improve Sum accuracy: with=%v no=%v truth=%v",
			withPred.Total, noPred.Total, truthRes.Value)
	}
}

func TestAggregateErrors(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	if _, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", convtQuery(), AggOptions{}); err == nil {
		t.Error("non-aggregate query should error")
	}
	if _, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "nope", countQuery(), AggOptions{}); err == nil {
		t.Error("unknown source should error")
	}
	bad := convtQuery()
	bad.Agg = &relation.Aggregate{Func: relation.AggSum, Attr: "nope"}
	if _, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", bad, AggOptions{}); err == nil {
		t.Error("unknown aggregate attribute should error")
	}
}

func TestInclusionRuleString(t *testing.T) {
	if RuleArgmax.String() != "argmax" || RuleFractional.String() != "fractional" {
		t.Error("rule names")
	}
}

// trimFixture is a 100-row world in which model determines body_style (Z4
// is Convt, Civic is Sedan) and only the rows missing their body_style
// carry a trim, a string. AVG(trim) is NaN over the certain answers of a
// body_style query and fails over any rewrite's contribution.
func trimFixture(t *testing.T, cfg Config) *Mediator {
	t.Helper()
	rel := relation.New("cars", relation.MustSchema(
		relation.Attribute{Name: "id", Kind: relation.KindString},
		relation.Attribute{Name: "model", Kind: relation.KindString},
		relation.Attribute{Name: "body_style", Kind: relation.KindString},
		relation.Attribute{Name: "trim", Kind: relation.KindString},
	))
	add := func(model string, style, trim relation.Value, n int) {
		for i := 0; i < n; i++ {
			id := relation.String(fmt.Sprint(rel.Len()))
			rel.MustInsert(relation.Tuple{id, relation.String(model), style, trim})
		}
	}
	add("Z4", relation.String("Convt"), relation.Null(), 40)
	add("Z4", relation.Null(), relation.String("M"), 10)
	add("Civic", relation.String("Sedan"), relation.Null(), 40)
	add("Civic", relation.Null(), relation.String("LX"), 10)
	smpl := rel.Clone()
	k, err := MineKnowledge("cars", smpl, 1, smpl.IncompleteFraction(), KnowledgeConfig{
		AFD:       afd.Config{MinSupport: 5},
		Predictor: nbc.PredictorConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := New(cfg)
	m.Register(source.New("cars", rel, source.Capabilities{}), k)
	return m
}

// TestAggregateFoldFailureDegrades pins that a contribution whose
// aggregate fails is reported, not dropped: the rewrite lands in Failed
// with the fold's error and the answer is Degraded.
func TestAggregateFoldFailureDegrades(t *testing.T) {
	m := trimFixture(t, Config{Alpha: 1, K: 0})
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))
	q.Agg = &relation.Aggregate{Func: relation.AggAvg, Attr: "trim"}
	ans, err := m.QueryAggregateWithCtx(context.Background(), m.Config(), "cars", q, AggOptions{IncludePossible: true, Rule: RuleArgmax})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Degraded || len(ans.Failed) == 0 {
		t.Fatalf("failed contribution not reported: Degraded=%v Failed=%d Included=%d",
			ans.Degraded, len(ans.Failed), len(ans.Included))
	}
	for _, rq := range ans.Failed {
		if rq.Err == nil || rq.Attempts != 1 {
			t.Errorf("failed rewrite %v: Err=%v Attempts=%d, want the fold error after 1 attempt",
				rq.Query, rq.Err, rq.Attempts)
		}
	}
	if len(ans.Included) != 0 || ans.PossibleRows != 0 {
		t.Errorf("a failed contribution was folded in: Included=%d PossibleRows=%d",
			len(ans.Included), ans.PossibleRows)
	}
}

// TestAggregateOpenCircuitStopsPlan pins the plan-level open-circuit skip
// on the aggregate path: once the breaker rejects one rewrite, the rest of
// the plan is skipped unissued and reported in Failed.
func TestAggregateOpenCircuitStopsPlan(t *testing.T) {
	cfg := Config{Alpha: 1, K: 0, Retry: fastRetry(1), Breaker: trippy()}
	f := newFixtureAttr(t, cfg, "price")
	// Base query up (ordinal 0), every rewrite after it down: two failures
	// trip the circuit, the third rewrite is rejected.
	f.src.SetFaults(faults.New(faults.Profile{FlapUp: 1, FlapDown: 1 << 30}))
	q := relation.NewQuery("cars", relation.Between("price", relation.Int(20000), relation.Int(40000)))
	q.Agg = &relation.Aggregate{Func: relation.AggCount}
	ans, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", q, AggOptions{IncludePossible: true, Rule: RuleFractional})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.src.Stats().BreakerRejected; got != 1 {
		t.Errorf("BreakerRejected = %d, want 1 (rest of the plan skipped)", got)
	}
	if !ans.Degraded {
		t.Error("open-circuit aggregate must be Degraded")
	}
	rejected, skipped := 0, 0
	for _, rq := range ans.Failed {
		switch {
		case errors.Is(rq.Err, errSkippedOpen):
			skipped++
			if rq.Attempts != 0 {
				t.Errorf("skipped rewrite %v made %d attempts", rq.Query, rq.Attempts)
			}
		case errors.Is(rq.Err, breaker.ErrOpen):
			rejected++
		}
	}
	if want := len(ans.Failed) - trippy().ConsecutiveFailures - 1; rejected != 1 || want <= 0 || skipped != want {
		t.Errorf("of %d failed rewrites %d rejected and %d skipped unissued, want 1 and %d",
			len(ans.Failed), rejected, skipped, want)
	}
}

// TestAggregateParallelSameAnswer pins that parallel issue changes timing
// only: the whole AggAnswer is the same at Parallel 1 and 8.
func TestAggregateParallelSameAnswer(t *testing.T) {
	seq := newFixtureAttr(t, Config{Alpha: 1, K: 0, Parallel: 1}, "price")
	par := newFixtureAttr(t, Config{Alpha: 1, K: 0, Parallel: 8}, "price")
	civic := relation.NewQuery("cars", relation.Eq("model", relation.String("Civic")))
	band := relation.NewQuery("cars", relation.Between("price", relation.Int(20000), relation.Int(40000)))
	fanOut := 0
	for _, tc := range []struct {
		q   relation.Query
		agg relation.Aggregate
	}{
		{band, relation.Aggregate{Func: relation.AggCount}},
		{band, relation.Aggregate{Func: relation.AggSum, Attr: "year"}},
		{band, relation.Aggregate{Func: relation.AggMax, Attr: "year"}},
		{civic, relation.Aggregate{Func: relation.AggSum, Attr: "price"}},
		{civic, relation.Aggregate{Func: relation.AggAvg, Attr: "price"}},
	} {
		for _, rule := range []InclusionRule{RuleArgmax, RuleFractional} {
			q := tc.q.Clone()
			q.Agg = &tc.agg
			opts := AggOptions{IncludePossible: true, PredictMissing: true, Rule: rule}
			a, err := seq.m.QueryAggregateWithCtx(context.Background(), seq.m.Config(), "cars", q, opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := par.m.QueryAggregateWithCtx(context.Background(), par.m.Config(), "cars", q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%v %v: Parallel 1 and 8 differ:\n seq: %+v\n par: %+v", tc.agg, rule, a, b)
			}
			fanOut = max(fanOut, len(a.Included))
		}
	}
	if fanOut < 2 {
		t.Errorf("no aggregate folded more than %d rewrites: nothing ran in parallel", fanOut)
	}
}
