package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"qpiad/internal/breaker"
	"qpiad/internal/faults"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// coreClock is a settable test clock shared by the answer cache and the
// attached breakers.
type coreClock struct {
	mu  sync.Mutex
	now time.Time
}

func newCoreClock() *coreClock { return &coreClock{now: time.Unix(0, 0)} }

func (c *coreClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *coreClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// trippy is an aggressive breaker config that opens after 2 consecutive
// failures and stays open for an hour of injected time.
func trippy() *breaker.Config {
	return &breaker.Config{
		Window:              8,
		MinSamples:          4,
		ConsecutiveFailures: 2,
		OpenTimeout:         time.Hour,
	}
}

// TestFetchAllOpenSkip verifies the plan-level early stop: once the breaker
// rejects one query, the rest of the plan resolves to errSkippedOpen
// without touching the source.
func TestFetchAllOpenSkip(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		f := faultyFixture(t, Config{}, faults.Profile{})
		f.src.SetBreaker(breaker.New("cars", *trippy()))
		f.src.SetFaults(faults.New(faults.Profile{FlapDown: 1})) // always down
		// Trip the circuit.
		for i := 0; i < 2; i++ {
			fetchOne(context.Background(), f.src, convtQuery(), nil, fastRetry(1))
		}
		if st := f.src.Breaker().State(); st != breaker.StateOpen {
			t.Fatalf("parallel=%d: breaker state = %v, want open", parallel, st)
		}
		queriesBefore := f.src.Stats().Queries

		queries := make([]relation.Query, 5)
		for i := range queries {
			queries[i] = relation.NewQuery("cars", relation.Eq("model", relation.String("Z4")))
		}
		results := fetchAll(context.Background(), f.src, queries, nil, parallel, fastRetry(1))
		for i, res := range results {
			if !errors.Is(res.err, breaker.ErrOpen) {
				t.Fatalf("parallel=%d: result %d err = %v, want ErrOpen", parallel, i, res.err)
			}
		}
		st := f.src.Stats()
		if st.Queries != queriesBefore {
			t.Errorf("parallel=%d: open plan consumed budget: Queries %d -> %d",
				parallel, queriesBefore, st.Queries)
		}
		// Exactly one admission rejection reached the breaker; the other
		// four plan entries were skipped by the mediator without asking.
		if st.BreakerRejected != 1 {
			t.Errorf("parallel=%d: BreakerRejected = %d, want 1 (rest skipped plan-side)",
				parallel, st.BreakerRejected)
		}
	}
}

// TestSelectOpenCircuitAccounting verifies a circuit that trips mid-plan
// degrades the batch result, classifies the unsent rewrites with
// breaker.ErrOpen, and accounts their selectivity as saved tuples.
func TestSelectOpenCircuitAccounting(t *testing.T) {
	cfg := Config{Alpha: 1, K: 10, Retry: fastRetry(1), Breaker: trippy(), NoCache: true}
	f := faultyFixture(t, cfg, faults.Profile{})
	// Base query up (ordinal 0), everything after down: rewrites fail until
	// the circuit opens, then the rest of the plan is skipped.
	f.src.SetFaults(faults.New(faults.Profile{FlapUp: 1, FlapDown: 1 << 30}))

	rs, err := f.m.QuerySelect("cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Degraded {
		t.Error("open-circuit plan must be Degraded")
	}
	var failed, open int
	for _, rq := range rs.Issued {
		switch {
		case errors.Is(rq.Err, breaker.ErrOpen):
			open++
		case rq.Err != nil:
			failed++
		}
	}
	if failed == 0 || open == 0 {
		t.Fatalf("want both transient failures and open-circuit skips, got failed=%d open=%d", failed, open)
	}
	if rs.EstSavedTuples <= 0 {
		t.Errorf("EstSavedTuples = %v, want > 0 for open-circuit skips", rs.EstSavedTuples)
	}
	if st := f.src.Breaker().State(); st != breaker.StateOpen {
		t.Errorf("breaker state = %v, want open", st)
	}
}

// staleFixture builds a fixture with cache TTLs, a manual clock, and an
// aggressive breaker, runs one clean query to warm the cache, and returns
// the fixture, the clock, and the fresh result.
func staleFixture(t *testing.T) (*fixture, *coreClock, *ResultSet) {
	t.Helper()
	clk := newCoreClock()
	cfg := Config{
		Alpha:    1,
		K:        10,
		Retry:    fastRetry(2),
		Breaker:  trippy(),
		CacheTTL: time.Second,
		StaleTTL: time.Hour,
		Clock:    clk.Now,
	}
	f := faultyFixture(t, cfg, faults.Profile{})
	rsFresh, err := f.m.QuerySelect("cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}
	if rsFresh.Stale {
		t.Fatal("fresh result must not be Stale")
	}
	// Age the cached entry past freshness, then take the source down hard.
	clk.Advance(2 * time.Second)
	f.src.SetFaults(faults.New(faults.Profile{FlapDown: 1}))
	// The recompute attempt fails with transient errors (2 attempts), which
	// trips the 2-consecutive-failure breaker.
	if _, err := f.m.QuerySelect("cars", convtQuery()); err == nil {
		t.Fatal("recompute against a down source should fail before the circuit opens")
	}
	if st := f.src.Breaker().State(); st != breaker.StateOpen {
		t.Fatalf("breaker state = %v, want open", st)
	}
	return f, clk, rsFresh
}

// TestStaleFallbackEquivalence verifies the stale serve: with the circuit
// open, the cached answer comes back byte-identical (shared sections, equal
// values) and flagged Stale with its age; certain answers are untouched.
func TestStaleFallbackEquivalence(t *testing.T) {
	f, _, rsFresh := staleFixture(t)

	rs, err := f.m.QuerySelect("cars", convtQuery())
	if err != nil {
		t.Fatalf("stale fallback should have served, got error: %v", err)
	}
	if !rs.Stale {
		t.Fatal("fallback result must be flagged Stale")
	}
	if rs.StaleAge != 2*time.Second {
		t.Errorf("StaleAge = %v, want 2s", rs.StaleAge)
	}
	if !reflect.DeepEqual(rs.Certain, rsFresh.Certain) ||
		!reflect.DeepEqual(rs.Possible, rsFresh.Possible) ||
		!reflect.DeepEqual(rs.Unranked, rsFresh.Unranked) ||
		!reflect.DeepEqual(rs.Issued, rsFresh.Issued) {
		t.Error("stale answer sections must be identical to the cached entry")
	}
	if n := f.m.StaleServed(); n != 1 {
		t.Errorf("StaleServed = %d, want 1", n)
	}
	// The stale serve must not have consumed source budget.
	snap, ok := f.m.BreakerSnapshot("cars")
	if !ok {
		t.Fatal("breaker snapshot missing")
	}
	if snap.State != breaker.StateOpen {
		t.Errorf("stale serve must leave the circuit open, got %v", snap.State)
	}
	// A second stale serve must not mutate the cached master.
	rs2, err := f.m.QuerySelect("cars", convtQuery())
	if err != nil || !rs2.Stale {
		t.Fatalf("second stale serve: %v, stale=%v", err, rs2 != nil && rs2.Stale)
	}
	if !reflect.DeepEqual(rs2.Possible, rsFresh.Possible) {
		t.Error("second stale serve differs — cached master was mutated")
	}
}

// TestStaleFallbackDisabled verifies StaleTTL=0 keeps the failure: an open
// circuit fails the query rather than silently serving stale data.
func TestStaleFallbackDisabled(t *testing.T) {
	clk := newCoreClock()
	cfg := Config{
		Alpha: 1, K: 10, Retry: fastRetry(2),
		Breaker: trippy(), CacheTTL: time.Second, Clock: clk.Now,
	}
	f := faultyFixture(t, cfg, faults.Profile{})
	if _, err := f.m.QuerySelect("cars", convtQuery()); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	f.src.SetFaults(faults.New(faults.Profile{FlapDown: 1}))
	if _, err := f.m.QuerySelect("cars", convtQuery()); err == nil {
		t.Fatal("first recompute should fail")
	}
	_, err := f.m.QuerySelect("cars", convtQuery())
	if !errors.Is(err, breaker.ErrOpen) {
		t.Fatalf("with StaleTTL=0 the open circuit must surface: %v", err)
	}
	if f.m.StaleServed() != 0 {
		t.Error("no stale serves expected")
	}
}

// TestStaleTTLBound verifies entries older than StaleTTL are not served.
func TestStaleTTLBound(t *testing.T) {
	f, clk, _ := staleFixture(t)
	clk.Advance(2 * time.Hour) // beyond StaleTTL=1h
	_, err := f.m.QuerySelect("cars", convtQuery())
	if !errors.Is(err, breaker.ErrOpen) {
		t.Fatalf("entry older than StaleTTL must not be served: %v", err)
	}
}

// TestStreamStaleFallback verifies the streaming stale replay: every answer
// event is flagged Stale, the answer sequence matches the cached entry, and
// the summary result is stale-marked.
func TestStreamStaleFallback(t *testing.T) {
	f, _, rsFresh := staleFixture(t)

	events, err := f.m.SelectStreamWith(context.Background(), f.m.Config(), "cars", convtQuery())
	if err != nil {
		t.Fatalf("stream stale fallback should have served, got error: %v", err)
	}
	var answers []Answer
	var sum *StreamSummary
	for ev := range events {
		switch ev.Kind {
		case StreamEventAnswer:
			if !ev.Stale {
				t.Error("stale replay answer run not flagged Stale")
			}
			answers = append(answers, ev.Answers...)
		case StreamEventRewrite:
			t.Error("stale replay must not emit rewrite events")
		case StreamEventSummary:
			sum = ev.Summary
		}
	}
	if sum == nil || !sum.Result.Stale {
		t.Fatal("stale replay summary missing or not stale-marked")
	}
	want := append(append(append([]Answer(nil), rsFresh.Certain...), rsFresh.Possible...), rsFresh.Unranked...)
	if !reflect.DeepEqual(answers, want) {
		t.Errorf("stale replay answers differ from cached entry: %d vs %d", len(answers), len(want))
	}
}

// TestPermanentErrorsNeverRetried is the classification audit: capability
// refusals, budget exhaustion, and open-circuit rejections all resolve in
// exactly one attempt.
func TestPermanentErrorsNeverRetried(t *testing.T) {
	f := faultyFixture(t, Config{}, faults.Profile{})
	pol := fastRetry(5)

	// Null-binding refusal.
	res := fetchOne(context.Background(), f.src, relation.NewQuery("cars", relation.IsNull("body_style")), nil, pol)
	if !errors.Is(res.err, source.ErrNullBinding) || res.attempts != 1 {
		t.Errorf("null binding: err=%v attempts=%d, want ErrNullBinding in 1 attempt", res.err, res.attempts)
	}
	// Unsupported attribute.
	res = fetchOne(context.Background(), f.src, relation.NewQuery("cars", relation.Eq("nope", relation.String("x"))), nil, pol)
	if !errors.Is(res.err, source.ErrUnsupportedAttr) || res.attempts != 1 {
		t.Errorf("unsupported attr: err=%v attempts=%d, want ErrUnsupportedAttr in 1 attempt", res.err, res.attempts)
	}
	// Open-circuit rejection.
	f.src.SetBreaker(breaker.New("cars", *trippy()))
	f.src.SetFaults(faults.New(faults.Profile{FlapDown: 1}))
	for i := 0; i < 2; i++ {
		fetchOne(context.Background(), f.src, convtQuery(), nil, fastRetry(1))
	}
	res = fetchOne(context.Background(), f.src, convtQuery(), nil, pol)
	if !errors.Is(res.err, breaker.ErrOpen) || res.attempts != 1 {
		t.Errorf("open circuit: err=%v attempts=%d, want ErrOpen in 1 attempt", res.err, res.attempts)
	}
	// None of those refusals fed the failure window (the two flap-down
	// transients are the only failures).
	snap := f.src.Breaker().Snapshot()
	if snap.Failures != 2 {
		t.Errorf("breaker failures = %d, want exactly the 2 transient trips", snap.Failures)
	}
}
