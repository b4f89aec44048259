package core

import (
	"context"
	"errors"
	"testing"

	"qpiad/internal/breaker"
	"qpiad/internal/faults"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// newCorrelatedFixture builds the Figure 2 setup: "carscom" supports
// body_style; "yahoo" does not (its local schema lacks the attribute).
// Returns the fixture plus the yahoo source and its hidden ground truth
// (id -> true body style).
func newCorrelatedFixture(t *testing.T, cfg Config) (*fixture, *source.Source, map[int64]relation.Value) {
	t.Helper()
	f := newFixture(t, cfg)

	// Build yahoo's backing data from an independent GD draw, then project
	// away body_style (the attribute exists in reality but is not exported).
	ygd := buildCarsGD(2000, 77)
	styleCol := ygd.Schema.MustIndex("body_style")
	idCol := ygd.Schema.MustIndex("id")
	truth := make(map[int64]relation.Value, ygd.Len())
	narrow, err := ygd.Schema.Project("id", "make", "model", "year", "price")
	if err != nil {
		t.Fatal(err)
	}
	yrel := relation.New("yahoo", narrow)
	for i := 0; i < ygd.Len(); i++ {
		tu := ygd.Tuple(i)
		truth[tu[idCol].IntVal()] = tu[styleCol]
		yrel.MustInsert(relation.Tuple{tu[0], tu[1], tu[2], tu[3], tu[4]})
	}
	ysrc := source.New("yahoo", yrel, source.Capabilities{})
	f.m.Register(ysrc, nil) // no mined knowledge of its own
	return f, ysrc, truth
}

func TestFindCorrelatedSource(t *testing.T) {
	f, _, _ := newCorrelatedFixture(t, DefaultConfig())
	plan, ok := f.m.FindCorrelatedSource("yahoo", "body_style")
	if !ok {
		t.Fatal("no correlated source found")
	}
	if plan.Correlated != "cars" || plan.Attr != "body_style" || plan.Target != "yahoo" {
		t.Errorf("plan = %+v", plan)
	}
	if plan.Confidence < 0.8 {
		t.Errorf("plan confidence = %v", plan.Confidence)
	}
	// No correlated source for an attribute nobody has an AFD for.
	if _, ok := f.m.FindCorrelatedSource("yahoo", "id"); ok {
		t.Error("id should have no correlated plan (AFDs pruned)")
	}
	if _, ok := f.m.FindCorrelatedSource("nope", "body_style"); ok {
		t.Error("unknown target should fail")
	}
}

func TestQuerySelectCorrelated(t *testing.T) {
	f, ysrc, truth := newCorrelatedFixture(t, Config{Alpha: 0, K: 10})
	q := relation.NewQuery("gs", relation.Eq("body_style", relation.String("Convt")))
	rs, err := f.m.QuerySelectCorrelatedCtx(context.Background(), "yahoo", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Possible) == 0 {
		t.Fatal("expected possible answers from yahoo")
	}
	if len(rs.Certain) != 0 {
		t.Error("yahoo cannot produce certain answers for body_style")
	}
	// Precision against hidden truth must be high (Figure 11's claim).
	idCol := ysrc.Schema().MustIndex("id")
	relevant := 0
	for _, a := range rs.Possible {
		tv := truth[a.Tuple[idCol].IntVal()]
		if !tv.IsNull() && tv.Str() == "Convt" {
			relevant++
		}
	}
	prec := float64(relevant) / float64(len(rs.Possible))
	if prec < 0.6 {
		t.Errorf("correlated-source precision = %v, want >= 0.6", prec)
	}
	// Explanations cite the correlated source.
	for _, a := range rs.Possible {
		if a.Explanation == "" {
			t.Fatal("correlated answers need explanations")
		}
	}
	// All issued rewrites are answerable by yahoo (no body_style preds).
	for _, rq := range rs.Issued {
		for _, p := range rq.Query.Preds {
			if !ysrc.Supports(p.Attr) {
				t.Fatalf("rewrite uses unsupported attribute: %v", rq.Query)
			}
		}
	}
}

func TestQuerySelectCorrelatedErrors(t *testing.T) {
	f, _, _ := newCorrelatedFixture(t, DefaultConfig())
	// Fully supported query: caller should use QuerySelectWithCtx.
	q := relation.NewQuery("gs", relation.Eq("model", relation.String("Z4")))
	if _, err := f.m.QuerySelectCorrelatedCtx(context.Background(), "yahoo", q); err == nil {
		t.Error("supported query should be rejected")
	}
	if _, err := f.m.QuerySelectCorrelatedCtx(context.Background(), "nope", convtQuery()); err == nil {
		t.Error("unknown source should error")
	}
	// Two unsupported attributes cannot be served.
	q2 := relation.NewQuery("gs",
		relation.Eq("body_style", relation.String("Convt")),
		relation.Eq("certified", relation.String("yes")),
	)
	if _, err := f.m.QuerySelectCorrelatedCtx(context.Background(), "yahoo", q2); err == nil {
		t.Error("doubly-unsupported query should error")
	}
}

func TestCorrelatedDeterministic(t *testing.T) {
	// Two identical runs produce identical rankings (no map-order leakage).
	run := func() []string {
		f, _, _ := newCorrelatedFixture(t, Config{Alpha: 0, K: 5})
		q := relation.NewQuery("gs", relation.Eq("body_style", relation.String("Convt")))
		rs, err := f.m.QuerySelectCorrelatedCtx(context.Background(), "yahoo", q)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, a := range rs.Possible {
			keys = append(keys, a.Tuple.Key())
		}
		return keys
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic result sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic ranking at %d", i)
		}
	}
}

// TestCorrelatedOpenCircuitAccounting pins the select path's open-circuit
// accounting on correlated queries: a rewrite rejected or skipped behind the
// target's open circuit degrades the result and counts its estimated
// selectivity as saved tuples.
func TestCorrelatedOpenCircuitAccounting(t *testing.T) {
	f, ysrc, _ := newCorrelatedFixture(t, Config{Alpha: 0, K: 10, Retry: fastRetry(1), Breaker: trippy()})
	ysrc.SetFaults(faults.New(faults.Profile{FlapUp: 0, FlapDown: 1 << 30}))
	q := relation.NewQuery("gs", relation.Eq("body_style", relation.String("Convt")))
	rs, err := f.m.QuerySelectCorrelatedCtx(context.Background(), "yahoo", q)
	if err != nil {
		t.Fatal(err)
	}
	open := 0
	for _, rq := range rs.Issued {
		if errors.Is(rq.Err, breaker.ErrOpen) {
			open++
		}
	}
	if open == 0 {
		t.Fatalf("scenario needs an open-circuit rewrite; issued %d", len(rs.Issued))
	}
	if !rs.Degraded {
		t.Error("open-circuit correlated query must be Degraded")
	}
	if rs.EstSavedTuples <= 0 {
		t.Errorf("EstSavedTuples = %v, want > 0 for %d open-circuit rewrites", rs.EstSavedTuples, open)
	}
}

// TestCorrelatedRewriteAccounting pins each issued rewrite's transfer
// accounting: Transferred is what the target source sent, and the kept
// rows add up to the possible answers.
func TestCorrelatedRewriteAccounting(t *testing.T) {
	f, ysrc, _ := newCorrelatedFixture(t, Config{Alpha: 0, K: 10})
	q := relation.NewQuery("gs", relation.Eq("body_style", relation.String("Convt")))
	rs, err := f.m.QuerySelectCorrelatedCtx(context.Background(), "yahoo", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Possible) == 0 {
		t.Fatal("scenario needs possible answers")
	}
	kept, transferred := 0, 0
	for _, rq := range rs.Issued {
		if rq.Kept > rq.Transferred {
			t.Errorf("rewrite %v: kept %d of %d transferred", rq.Query, rq.Kept, rq.Transferred)
		}
		kept += rq.Kept
		transferred += rq.Transferred
	}
	if kept != len(rs.Possible) {
		t.Errorf("Σ Kept = %d, want %d possible answers", kept, len(rs.Possible))
	}
	if st := ysrc.Stats(); transferred != st.TuplesReturned {
		t.Errorf("Σ Transferred = %d, want the %d tuples yahoo returned", transferred, st.TuplesReturned)
	}
}
