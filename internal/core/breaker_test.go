package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
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
		results := fetchAll(context.Background(), f.src, queries, nil, parallel, fastRetry(1), nil, nil)
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
				t.Error("stale replay answer event not flagged Stale")
			}
			answers = append(answers, *ev.Answer)
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

// hedgeFake is a breaker-carrying queryable whose primary leg blocks until
// cancelled and whose hedge leg returns immediately — the slow-primary
// scenario hedging exists for.
type hedgeFake struct {
	br               *breaker.Breaker
	rows             []relation.Tuple
	primaryStarted   atomic.Int32
	primaryCancelled atomic.Int32
	hedgeServed      atomic.Int32
}

func (h *hedgeFake) Breaker() *breaker.Breaker { return h.br }

func (h *hedgeFake) Fetch(ctx context.Context, q relation.Query, keep func(relation.Tuple) bool) ([]relation.Tuple, int, error) {
	if faults.IsHedge(ctx) {
		h.hedgeServed.Add(1)
		return keptRows(h.rows, keep), len(h.rows), nil
	}
	h.primaryStarted.Add(1)
	<-ctx.Done()
	h.primaryCancelled.Add(1)
	return nil, 0, ctx.Err()
}

// keptRows is what a fake source returns for rows under keep: the rows
// keep accepts, all of them when keep is nil.
func keptRows(rows []relation.Tuple, keep func(relation.Tuple) bool) []relation.Tuple {
	if keep == nil {
		return rows
	}
	var out []relation.Tuple
	for _, t := range rows {
		if keep(t) {
			out = append(out, t)
		}
	}
	return out
}

// hedgeBreaker returns a breaker warmed past MinSamples so HedgeDelay
// publishes a small p95.
func hedgeBreaker(t *testing.T) *breaker.Breaker {
	t.Helper()
	br := breaker.New("fake", breaker.Config{MinSamples: 2})
	for i := 0; i < 2; i++ {
		c, err := br.Allow()
		if err != nil {
			t.Fatal(err)
		}
		c.Observe(time.Millisecond, breaker.ClassSuccess)
	}
	if br.HedgeDelay(0, 0) <= 0 {
		t.Fatal("warmed breaker must publish a hedge delay")
	}
	return br
}

// TestHedgeWinsAgainstSlowPrimary verifies the hedge race: the hedge leg
// wins, the primary is cancelled promptly and drained before fetchOne
// returns, and the breaker accounts exactly one launched hedge and one win.
func TestHedgeWinsAgainstSlowPrimary(t *testing.T) {
	fake := &hedgeFake{br: hedgeBreaker(t), rows: []relation.Tuple{{relation.String("x")}}}
	pol := fastRetry(1)
	pol.Hedge = HedgePolicy{Enabled: true, MaxDelay: 5 * time.Millisecond}

	res := fetchOne(context.Background(), fake, convtQuery(), nil, pol)
	if res.err != nil {
		t.Fatalf("hedged fetch failed: %v", res.err)
	}
	if len(res.rows) != 1 {
		t.Fatalf("rows = %d, want the hedge leg's result", len(res.rows))
	}
	// The loser was drained before return: its cancellation is already
	// observable, with no sleep or polling.
	if fake.primaryStarted.Load() != 1 || fake.primaryCancelled.Load() != 1 {
		t.Errorf("primary started/cancelled = %d/%d, want 1/1 (loser cancelled and drained)",
			fake.primaryStarted.Load(), fake.primaryCancelled.Load())
	}
	if fake.hedgeServed.Load() != 1 {
		t.Errorf("hedge legs served = %d, want 1", fake.hedgeServed.Load())
	}
	snap := fake.br.Snapshot()
	if snap.HedgesLaunched != 1 || snap.HedgeWins != 1 || snap.HedgeLosses != 0 {
		t.Errorf("hedge accounting = launched %d wins %d losses %d, want 1/1/0",
			snap.HedgesLaunched, snap.HedgeWins, snap.HedgeLosses)
	}
}

// slowHedgeFake's primary answers after a short delay; its hedge leg fails
// immediately — the primary must win and the hedge count as a loss.
type slowHedgeFake struct {
	br   *breaker.Breaker
	rows []relation.Tuple
}

func (h *slowHedgeFake) Breaker() *breaker.Breaker { return h.br }

func (h *slowHedgeFake) Fetch(ctx context.Context, q relation.Query, keep func(relation.Tuple) bool) ([]relation.Tuple, int, error) {
	if faults.IsHedge(ctx) {
		return nil, 0, faults.ErrTransient
	}
	t := time.NewTimer(20 * time.Millisecond)
	defer t.Stop()
	select {
	case <-t.C:
		return keptRows(h.rows, keep), len(h.rows), nil
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

// TestHedgeLossAccounting verifies a failed hedge leg does not fail the
// query: the primary's result wins and the hedge is recorded as a loss.
func TestHedgeLossAccounting(t *testing.T) {
	fake := &slowHedgeFake{br: hedgeBreaker(t), rows: []relation.Tuple{{relation.String("x")}}}
	pol := fastRetry(1)
	pol.Hedge = HedgePolicy{Enabled: true, MaxDelay: 2 * time.Millisecond}

	res := fetchOne(context.Background(), fake, convtQuery(), nil, pol)
	if res.err != nil || len(res.rows) != 1 {
		t.Fatalf("primary should win: rows=%d err=%v", len(res.rows), res.err)
	}
	snap := fake.br.Snapshot()
	if snap.HedgesLaunched != 1 || snap.HedgeWins != 0 || snap.HedgeLosses != 1 {
		t.Errorf("hedge accounting = launched %d wins %d losses %d, want 1/0/1",
			snap.HedgesLaunched, snap.HedgeWins, snap.HedgeLosses)
	}
}

// TestHedgeLegsShareKeep verifies the hedge leg fetches under the
// attempt's post-filter: the winner's kept rows come back with its count
// of transferred tuples.
func TestHedgeLegsShareKeep(t *testing.T) {
	fake := &hedgeFake{br: hedgeBreaker(t), rows: []relation.Tuple{{relation.String("x")}, {relation.Null()}}}
	pol := fastRetry(1)
	pol.Hedge = HedgePolicy{Enabled: true, MaxDelay: 5 * time.Millisecond}
	keep := func(tu relation.Tuple) bool { return tu[0].IsNull() }

	res := fetchOne(context.Background(), fake, convtQuery(), keep, pol)
	if res.err != nil || len(res.rows) != 1 || !res.rows[0][0].IsNull() || res.transferred != 2 {
		t.Fatalf("hedged fetch = %v rows, %d transferred, err %v; want the null row of 2 transferred",
			res.rows, res.transferred, res.err)
	}
	if fake.hedgeServed.Load() != 1 {
		t.Errorf("hedge legs served = %d, want 1", fake.hedgeServed.Load())
	}
}

// TestHedgeDisabledOrCold verifies hedging is inert without a breaker, with
// a cold breaker, or when disabled — exactly one source call either way.
func TestHedgeDisabledOrCold(t *testing.T) {
	var calls atomic.Int32
	plain := queryableFunc(func(ctx context.Context, q relation.Query) ([]relation.Tuple, error) {
		calls.Add(1)
		return nil, nil
	})
	pol := fastRetry(1)
	pol.Hedge = HedgePolicy{Enabled: true}
	// No Breaker() method at all: never hedged.
	if res := fetchOne(context.Background(), plain, convtQuery(), nil, pol); res.err != nil {
		t.Fatal(res.err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 (no breaker, no hedge)", calls.Load())
	}
	// Cold breaker (no p95 yet): never hedged.
	cold := &hedgeFake{br: breaker.New("cold", breaker.Config{MinSamples: 100})}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res := fetchOne(ctx, cold, convtQuery(), nil, pol)
	if !errors.Is(res.err, context.DeadlineExceeded) {
		t.Fatalf("cold-breaker primary should run unhedged to deadline: %v", res.err)
	}
	if cold.hedgeServed.Load() != 0 {
		t.Error("cold breaker must not hedge")
	}
}

// queryableFunc adapts a function to the queryable interface.
type queryableFunc func(context.Context, relation.Query) ([]relation.Tuple, error)

func (f queryableFunc) Fetch(ctx context.Context, q relation.Query, keep func(relation.Tuple) bool) ([]relation.Tuple, int, error) {
	rows, err := f(ctx, q)
	return keptRows(rows, keep), len(rows), err
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
