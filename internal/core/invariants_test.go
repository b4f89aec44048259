package core

import (
	"context"
	"math/rand"
	"testing"

	"qpiad/internal/relation"
)

// TestRandomizedQueryInvariants fuzzes the full selection pipeline with
// random single- and multi-attribute queries and checks the QPIAD
// invariants on every result:
//
//  1. every certain answer satisfies the query;
//  2. every ranked possible answer is null on at least one constrained
//     attribute and satisfies all predicates on its non-null attributes;
//  3. no duplicates across certain ∪ possible ∪ unranked;
//  4. possible answers are ordered by non-increasing confidence, all in
//     (0, 1];
//  5. issued rewrites never constrain their target attribute, never exceed
//     K, and are ordered by non-increasing precision;
//  6. the source never rejects a QPIAD query.
func TestRandomizedQueryInvariants(t *testing.T) {
	f := newFixture(t, Config{Alpha: 0.5, K: 7})
	rng := rand.New(rand.NewSource(99))

	attrs := []string{"body_style", "model", "make", "price", "year"}
	randomQuery := func() relation.Query {
		q := relation.NewQuery("cars")
		n := 1 + rng.Intn(2)
		perm := rng.Perm(len(attrs))
		for i := 0; i < n; i++ {
			attr := attrs[perm[i]]
			dom := f.gd.Domain(attr)
			q = q.With(relation.Eq(attr, dom[rng.Intn(len(dom))]))
		}
		return q
	}

	for trial := 0; trial < 40; trial++ {
		q := randomQuery()
		rs, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", q)
		if err != nil {
			t.Fatalf("trial %d query %s: %v", trial, q, err)
		}
		constrained := q.ConstrainedAttrs()
		seen := map[string]bool{}
		for _, a := range rs.Certain {
			if !q.Matches(f.ed.Schema, a.Tuple) {
				t.Fatalf("trial %d: certain answer violates %s: %v", trial, q, a.Tuple)
			}
			if seen[a.Tuple.Key()] {
				t.Fatalf("trial %d: duplicate certain answer", trial)
			}
			seen[a.Tuple.Key()] = true
		}
		lastConf := 2.0
		for _, a := range rs.Possible {
			if n := a.Tuple.NullCountOn(f.ed.Schema, constrained); n < 1 {
				t.Fatalf("trial %d: possible answer with no constrained null: %v", trial, a.Tuple)
			}
			for _, p := range q.Preds {
				col := f.ed.Schema.MustIndex(p.Attr)
				if !a.Tuple[col].IsNull() && !p.Matches(f.ed.Schema, a.Tuple) {
					t.Fatalf("trial %d: possible answer violates visible predicate %s: %v", trial, p, a.Tuple)
				}
			}
			if a.Confidence <= 0 || a.Confidence > 1 {
				t.Fatalf("trial %d: confidence %v", trial, a.Confidence)
			}
			if a.Confidence > lastConf {
				t.Fatalf("trial %d: ranking not monotone", trial)
			}
			lastConf = a.Confidence
			if seen[a.Tuple.Key()] {
				t.Fatalf("trial %d: duplicate possible answer", trial)
			}
			seen[a.Tuple.Key()] = true
		}
		if len(rs.Issued) > 7 {
			t.Fatalf("trial %d: issued %d > K", trial, len(rs.Issued))
		}
		lastPrec := 2.0
		for _, rq := range rs.Issued {
			if _, ok := rq.Query.PredOn(rq.TargetAttr); ok {
				t.Fatalf("trial %d: rewrite constrains target: %v", trial, rq.Query)
			}
			if rq.Precision > lastPrec {
				t.Fatalf("trial %d: issue order not precision-sorted", trial)
			}
			lastPrec = rq.Precision
		}
	}
	if rej := f.src.Stats().Rejected; rej != 0 {
		t.Errorf("source rejected %d queries", rej)
	}
}

// TestRandomizedAggregateInvariants fuzzes aggregate processing: the
// combined total always equals certain + possible, possible is 0 without
// IncludePossible, and COUNT totals are non-negative integers.
func TestRandomizedAggregateInvariants(t *testing.T) {
	f := newFixture(t, Config{Alpha: 1, K: 5})
	rng := rand.New(rand.NewSource(7))
	attrs := []string{"body_style", "model", "make", "year"}
	for trial := 0; trial < 20; trial++ {
		attr := attrs[rng.Intn(len(attrs))]
		dom := f.gd.Domain(attr)
		q := relation.NewQuery("cars", relation.Eq(attr, dom[rng.Intn(len(dom))]))
		q.Agg = &relation.Aggregate{Func: relation.AggCount}
		for _, opts := range []AggOptions{
			{},
			{IncludePossible: true, Rule: RuleArgmax},
			{IncludePossible: true, PredictMissing: true, Rule: RuleFractional},
		} {
			ans, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", q, opts)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if ans.Total != ans.Certain+ans.Possible {
				t.Fatalf("trial %d: total %v != certain %v + possible %v", trial, ans.Total, ans.Certain, ans.Possible)
			}
			if !opts.IncludePossible && ans.Possible != 0 {
				t.Fatalf("trial %d: possible without IncludePossible", trial)
			}
			if ans.Total < 0 {
				t.Fatalf("trial %d: negative count", trial)
			}
		}
	}
}
