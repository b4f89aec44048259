package core

import (
	"context"
	"testing"

	"qpiad/internal/relation"
)

func TestQuerySelectGlobal(t *testing.T) {
	// Fixture: "cars" has body_style + knowledge; "yahoo" lacks body_style
	// and is reached through correlated knowledge.
	f, ysrc, _ := newCorrelatedFixture(t, Config{Alpha: 0, K: 5})
	q := relation.NewQuery("gs", relation.Eq("body_style", relation.String("Convt")))
	res, err := f.m.QuerySelectGlobalCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSource) != 2 {
		t.Fatalf("sources answered = %d (errors: %v)", len(res.PerSource), res.Errors)
	}
	// Both sources contribute possible answers, tagged with their origin.
	bySource := map[string]int{}
	for _, a := range res.Possible {
		bySource[a.Source]++
	}
	if bySource["cars"] == 0 || bySource[ysrc.Name()] == 0 {
		t.Errorf("contributions per source: %v", bySource)
	}
	// Merged ranking is monotone.
	for i := 1; i < len(res.Possible); i++ {
		if res.Possible[i-1].Confidence < res.Possible[i].Confidence {
			t.Fatal("global possible answers not sorted by confidence")
		}
	}
	// Certain answers only come from the source supporting the attribute.
	for _, a := range res.Certain {
		if a.Source != "cars" {
			t.Errorf("certain answer from %q, expected only cars", a.Source)
		}
	}
}

func TestQuerySelectGlobalPartialFailure(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	// A second source with no knowledge and full attribute support: it
	// cannot be served (no correlated path applies), but the query still
	// succeeds through "cars".
	f.m.Register(f.src2(t), nil)
	q := convtQuery()
	res, err := f.m.QuerySelectGlobalCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 1 {
		t.Errorf("expected one per-source failure, got %v", res.Errors)
	}
	if len(res.PerSource) != 1 {
		t.Errorf("expected one success, got %d", len(res.PerSource))
	}
}

func TestQuerySelectGlobalTotalFailure(t *testing.T) {
	m := New(DefaultConfig())
	if _, err := m.QuerySelectGlobalCtx(context.Background(), relation.NewQuery("gs")); err == nil {
		t.Error("no sources should be a hard error")
	}
}
