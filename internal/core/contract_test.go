package core

import (
	"context"
	"errors"
	"testing"

	"qpiad/internal/leakcheck"
	"qpiad/internal/relation"
)

// TestContractCancelledContext is the cancellation row of the entry-point
// contract: each of the mediator's seven query methods, called on a
// context that is already cancelled, returns an error wrapping
// context.Canceled, sends no query to any source and leaves no goroutine
// behind.
func TestContractCancelledContext(t *testing.T) {
	cfg := Config{Alpha: 0.5, K: 10, Parallel: 4}
	xf, _, _ := newCorrelatedFixture(t, cfg) // cars, and yahoo without body_style
	jf := newJoinFixture(t, cfg)             // cars and complaints
	gs := relation.NewQuery("gs", relation.Eq("body_style", relation.String("Convt")))
	join := joinSpec(0.5, 10)
	chain := ChainSpec{
		Sources:   []string{join.LeftSource, join.RightSource},
		Queries:   []relation.Query{join.LeftQuery, join.RightQuery},
		JoinAttrs: [][2]string{{join.LeftJoinAttr, join.RightJoinAttr}},
		Alpha:     join.Alpha,
		K:         join.K,
	}
	sent := func(m *Mediator) int {
		n := 0
		for _, name := range m.SourceNames() {
			src, _ := m.Source(name)
			n += src.Stats().Queries
		}
		return n
	}
	for _, tc := range []struct {
		name string
		m    *Mediator
		call func(ctx context.Context, m *Mediator) error
	}{
		{"select", xf.m, func(ctx context.Context, m *Mediator) error {
			_, err := m.QuerySelectWithCtx(ctx, m.Config(), "cars", convtQuery())
			return err
		}},
		{"stream", xf.m, func(ctx context.Context, m *Mediator) error {
			events, err := m.SelectStreamWith(ctx, m.Config(), "cars", convtQuery())
			if err == nil {
				for range events {
				}
			}
			return err
		}},
		{"aggregate", xf.m, func(ctx context.Context, m *Mediator) error {
			_, err := m.QueryAggregateWithCtx(ctx, m.Config(), "cars", countQuery(), AggOptions{IncludePossible: true})
			return err
		}},
		{"correlated", xf.m, func(ctx context.Context, m *Mediator) error {
			_, err := m.QuerySelectCorrelatedCtx(ctx, "yahoo", gs)
			return err
		}},
		{"global", xf.m, func(ctx context.Context, m *Mediator) error {
			_, err := m.QuerySelectGlobalCtx(ctx, gs)
			return err
		}},
		{"join", jf.m, func(ctx context.Context, m *Mediator) error {
			_, err := m.QueryJoinCtx(ctx, join)
			return err
		}},
		{"chain", jf.m, func(ctx context.Context, m *Mediator) error {
			_, err := m.QueryJoinChainCtx(ctx, chain)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			snap := leakcheck.Take()
			if err := tc.call(ctx, tc.m); !errors.Is(err, context.Canceled) {
				t.Errorf("error %v, want one wrapping context.Canceled", err)
			}
			if n := sent(tc.m); n != 0 {
				t.Errorf("sources counted %d queries, want 0", n)
			}
			if leaks := snap.Check(); len(leaks) > 0 {
				t.Errorf("goroutines left behind: %v", leaks)
			}
		})
	}
}
