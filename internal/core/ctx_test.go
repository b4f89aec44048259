package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"qpiad/internal/faults"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// slowRetry is a policy whose full retry schedule takes many seconds —
// long enough that only context cancellation can explain a fast return.
func slowRetry() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 200,
		BaseBackoff: 50 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	}
}

// TestQuerySelectCtxCancelPrompt verifies that cancelling the context of
// QuerySelectWithCtx aborts the pipeline promptly: with a permanently failing
// source and a multi-second retry schedule, a 30ms context deadline must
// surface within a small bound, as a context error.
func TestQuerySelectCtxCancelPrompt(t *testing.T) {
	f := newFixture(t, Config{Alpha: 1, K: 5, Retry: slowRetry()})
	f.src.SetFaults(faults.New(faults.Profile{Seed: 1, FailFirstAttempts: 1000}))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.m.QuerySelectWithCtx(ctx, f.m.Config(), "cars", convtQuery())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected error from cancelled context under permanent faults")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error should wrap context.DeadlineExceeded, got %v", err)
	}
	// The uncancelled schedule is 200 attempts × 50ms ≈ 10s; anything close
	// to that means the context was dropped on the floor.
	if elapsed > 2*time.Second {
		t.Errorf("cancellation not prompt: took %v", elapsed)
	}
}

// TestFetchAllParallelCtxCancel verifies the parallel fetch path threads the
// caller's context into every worker: a cancelled context stops all
// in-flight retries promptly instead of letting each goroutine run out its
// multi-second backoff schedule.
func TestFetchAllParallelCtxCancel(t *testing.T) {
	src := source.New("cars", buildCarsGD(100, 5), source.Capabilities{})
	src.SetFaults(faults.New(faults.Profile{Seed: 1, FailFirstAttempts: 1000}))
	queries := make([]relation.Query, 8)
	for i := range queries {
		queries[i] = convtQuery()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	results := fetchAll(ctx, src, queries, nil, 4, slowRetry())
	elapsed := time.Since(start)
	for i, res := range results {
		if res.err == nil {
			t.Errorf("result %d: expected error under permanent faults", i)
		}
	}
	if elapsed > 2*time.Second {
		t.Errorf("parallel cancellation not prompt: took %v", elapsed)
	}
}

// TestQueryAggregateCtxCancelPrompt covers the aggregate pipeline's context
// threading the same way.
func TestQueryAggregateCtxCancelPrompt(t *testing.T) {
	f := newFixture(t, Config{Alpha: 1, K: 5, Retry: slowRetry()})
	f.src.SetFaults(faults.New(faults.Profile{Seed: 3, FailFirstAttempts: 1000}))
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))
	q.Agg = &relation.Aggregate{Func: relation.AggCount}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.m.QueryAggregateWithCtx(ctx, f.m.Config(), "cars", q, AggOptions{IncludePossible: true})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected error from cancelled context under permanent faults")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error should wrap context.DeadlineExceeded, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation not prompt: took %v", elapsed)
	}
}

// TestSelectStreamCancelledSendsNoRewrite cancels a stream before reading
// any event. The pipeline is then held at its certain run until the
// cancellation, so every rewrite it chooses afterwards must stay unsent:
// the source sees the base query and nothing more.
func TestSelectStreamCancelledSendsNoRewrite(t *testing.T) {
	cfg := Config{Alpha: 0.5, K: 10, Parallel: 4, NoCache: true}
	f := newFixture(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	events, err := f.m.SelectStreamWith(ctx, cfg, "cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for ev := range events {
		if ev.Kind == StreamEventSummary {
			t.Error("cancelled stream sent a summary")
		}
	}
	if q := f.src.Stats().Queries; q != 1 {
		t.Errorf("source counted %d queries, want the base query alone", q)
	}
}

// TestFetchAllCancelledSendsNothing runs the fetch engine on a context that
// is already cancelled: no query reaches the source, so none is counted or
// takes budget, and each resolves unsent (0 attempts) with the context's
// error.
func TestFetchAllCancelledSendsNothing(t *testing.T) {
	f := newFixture(t, Config{})
	queries := []relation.Query{
		convtQuery(),
		relation.NewQuery("cars", relation.Eq("model", relation.String("A4"))),
		relation.NewQuery("cars", relation.Eq("model", relation.String("Z4"))),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, res := range fetchAll(ctx, f.src, queries, nil, 2, fastRetry(3)) {
		if res.attempts != 0 || !errors.Is(res.err, context.Canceled) {
			t.Errorf("query %d: attempts %d, err %v; want 0 attempts and context.Canceled", i, res.attempts, res.err)
		}
	}
	if st := f.src.Stats(); st.Queries != 0 || st.Rejected != 0 || st.BreakerRejected != 0 {
		t.Errorf("source stats %+v, want no query admitted or rejected", st)
	}
}
