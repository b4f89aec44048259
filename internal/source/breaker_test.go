package source

import (
	"context"
	"errors"
	"testing"
	"time"

	"qpiad/internal/breaker"
	"qpiad/internal/faults"
	"qpiad/internal/relation"
)

func trippyConfig() breaker.Config {
	return breaker.Config{
		Window:              8,
		MinSamples:          4,
		ConsecutiveFailures: 2,
		OpenTimeout:         time.Hour, // stays open for the whole test
	}
}

// TestBreakerOpenRejection verifies an open circuit rejects queries with a
// breaker.ErrOpen-wrapping error, consumes no budget, transfers nothing,
// and is accounted under BreakerRejected (not Rejected or Errors).
func TestBreakerOpenRejection(t *testing.T) {
	src := New("cars", carRel(), Capabilities{MaxQueries: 100})
	src.SetFaults(faults.New(faults.Profile{FlapDown: 1})) // always down
	src.SetBreaker(breaker.New("cars", trippyConfig()))

	// Two transient failures trip the circuit.
	for i := 0; i < 2; i++ {
		if _, err := src.QueryCtx(context.Background(), bmwQuery()); !errors.Is(err, faults.ErrTransient) {
			t.Fatalf("attempt %d: want ErrTransient, got %v", i, err)
		}
	}
	if st := src.Breaker().State(); st != breaker.StateOpen {
		t.Fatalf("breaker state = %v, want open", st)
	}
	queriesBefore := src.Stats().Queries

	_, err := src.QueryCtx(context.Background(), bmwQuery())
	if !errors.Is(err, breaker.ErrOpen) {
		t.Fatalf("want breaker.ErrOpen, got %v", err)
	}
	// Open-circuit rejections are distinguishable from real source errors.
	if errors.Is(err, faults.ErrTransient) || faults.Retryable(err) {
		t.Fatalf("open-circuit rejection must not look transient/retryable: %v", err)
	}

	st := src.Stats()
	if st.Queries != queriesBefore {
		t.Errorf("rejected query consumed budget: Queries %d -> %d", queriesBefore, st.Queries)
	}
	if st.BreakerRejected != 1 {
		t.Errorf("BreakerRejected = %d, want 1", st.BreakerRejected)
	}
	if st.Rejected != 0 {
		t.Errorf("breaker rejection must not count as capability Rejected, got %d", st.Rejected)
	}
}

// TestBreakerCapabilityRejectionsNeutral verifies deterministic capability
// refusals never reach the breaker: they cannot trip the circuit.
func TestBreakerCapabilityRejectionsNeutral(t *testing.T) {
	src := New("cars", carRel(), Capabilities{})
	src.SetBreaker(breaker.New("cars", trippyConfig()))

	nullQ := relation.NewQuery("cars", relation.IsNull("body_style"))
	for i := 0; i < 10; i++ {
		if _, err := src.QueryCtx(context.Background(), nullQ); !errors.Is(err, ErrNullBinding) {
			t.Fatalf("want ErrNullBinding, got %v", err)
		}
	}
	snap := src.Breaker().Snapshot()
	if snap.State != breaker.StateClosed || snap.Failures != 0 {
		t.Fatalf("capability rejections fed the breaker: %+v", snap)
	}
}

// TestBreakerBudgetRefusalNeutral verifies budget exhaustion after
// admission settles the breaker call as neutral — it releases any probe
// slot but never counts as a source failure.
func TestBreakerBudgetRefusalNeutral(t *testing.T) {
	src := New("cars", carRel(), Capabilities{MaxQueries: 1})
	src.SetBreaker(breaker.New("cars", trippyConfig()))

	if _, err := src.QueryCtx(context.Background(), bmwQuery()); err != nil {
		t.Fatalf("first query: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := src.QueryCtx(context.Background(), bmwQuery()); !errors.Is(err, ErrQueryBudget) {
			t.Fatalf("want ErrQueryBudget, got %v", err)
		}
	}
	snap := src.Breaker().Snapshot()
	if snap.State != breaker.StateClosed || snap.Failures != 0 || snap.Neutrals != 5 {
		t.Fatalf("budget refusals must settle neutral: %+v", snap)
	}
}

// TestBreakerOutcomeClassification verifies what each outcome kind teaches
// the breaker: successes and transient failures feed it, cancellation is
// neutral.
func TestBreakerOutcomeClassification(t *testing.T) {
	src := New("cars", carRel(), Capabilities{Latency: 50 * time.Millisecond})
	cfg := trippyConfig()
	cfg.ConsecutiveFailures = 100 // observe without tripping
	src.SetBreaker(breaker.New("cars", cfg))

	if _, err := src.QueryCtx(context.Background(), bmwQuery()); err != nil {
		t.Fatalf("success query: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := src.QueryCtx(ctx, bmwQuery()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	snap := src.Breaker().Snapshot()
	if snap.Successes != 1 || snap.Failures != 0 || snap.Neutrals != 1 {
		t.Fatalf("snapshot = %+v, want 1 success, 1 neutral", snap)
	}
}

// TestBreakerHalfOpenProbeRecovery drives the full closed → open →
// half-open → closed cycle through the source with a scripted flap and a
// manual clock.
func TestBreakerHalfOpenProbeRecovery(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	cfg := breaker.Config{
		Window:              8,
		MinSamples:          4,
		ConsecutiveFailures: 2,
		OpenTimeout:         time.Second,
		CloseAfter:          2,
		Clock:               clock,
	}
	src := New("cars", carRel(), Capabilities{})
	// Down for 2 attempts, then up for good (a long up window).
	src.SetFaults(faults.New(faults.Profile{FlapUp: 0, FlapDown: 2}))
	b := breaker.New("cars", cfg)
	src.SetBreaker(b)

	// Flap ordinals 0,1 are down (0 % 2 >= 0): two failures trip it.
	// (FlapUp=0 means the first FlapDown ordinals of each period fail; with
	// period == FlapDown the schedule is "always down", so detach faults
	// after the trip to model recovery.)
	for i := 0; i < 2; i++ {
		if _, err := src.QueryCtx(context.Background(), bmwQuery()); err == nil {
			t.Fatalf("flap-down attempt %d unexpectedly succeeded", i)
		}
	}
	if st := b.State(); st != breaker.StateOpen {
		t.Fatalf("state = %v, want open", st)
	}
	src.SetFaults(nil) // source recovers while the circuit is open

	// Still inside OpenTimeout: rejected.
	if _, err := src.QueryCtx(context.Background(), bmwQuery()); !errors.Is(err, breaker.ErrOpen) {
		t.Fatalf("want ErrOpen inside OpenTimeout, got %v", err)
	}
	now = now.Add(time.Second)

	// Two successful probes close the circuit.
	for i := 0; i < 2; i++ {
		if _, err := src.QueryCtx(context.Background(), bmwQuery()); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
	if st := b.State(); st != breaker.StateClosed {
		t.Fatalf("state after probes = %v, want closed", st)
	}
	if _, err := src.QueryCtx(context.Background(), bmwQuery()); err != nil {
		t.Fatalf("post-recovery query: %v", err)
	}
}
