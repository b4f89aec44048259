package faults

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestDecideDeterministic verifies the core contract: Decide is a pure
// function of (seed, source, queryKey, attempt).
func TestDecideDeterministic(t *testing.T) {
	p := Profile{Seed: 7, TransientRate: 0.3, TimeoutRate: 0.1,
		LatencyJitter: 5 * time.Millisecond, TruncateRate: 0.2, TruncateTo: 3}
	a, b := New(p), New(p)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("q-%d", i)
		for attempt := 1; attempt <= 3; attempt++ {
			oa := a.Decide("cars", key, attempt)
			ob := b.Decide("cars", key, attempt)
			if (oa.Err == nil) != (ob.Err == nil) ||
				oa.Latency != ob.Latency || oa.TruncateTo != ob.TruncateTo {
				t.Fatalf("decision for (%s, %d) differs: %+v vs %+v", key, attempt, oa, ob)
			}
			if oa.Err != nil && oa.Err.Error() != ob.Err.Error() {
				t.Fatalf("error text differs: %v vs %v", oa.Err, ob.Err)
			}
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// TestDecideVariesByCoordinates confirms different sources, keys, attempts
// and seeds draw independent outcomes (no accidental seed collapse).
func TestDecideVariesByCoordinates(t *testing.T) {
	p := Profile{Seed: 1, TransientRate: 0.5}
	in := New(p)
	vary := func(f func(i int) Outcome) bool {
		first := f(0)
		for i := 1; i < 64; i++ {
			if (f(i).Err == nil) != (first.Err == nil) {
				return true
			}
		}
		return false
	}
	if !vary(func(i int) Outcome { return in.Decide("cars", fmt.Sprintf("q%d", i), 1) }) {
		t.Error("outcome should vary across query keys")
	}
	if !vary(func(i int) Outcome { return in.Decide(fmt.Sprintf("s%d", i), "q", 1) }) {
		t.Error("outcome should vary across sources")
	}
	if !vary(func(i int) Outcome { return in.Decide("cars", "q", i+1) }) {
		t.Error("outcome should vary across attempts")
	}
}

// TestDecideRates checks the injected fault mix over many keys roughly
// matches the profile rates (deterministically — the seed is fixed).
func TestDecideRates(t *testing.T) {
	in := New(Profile{Seed: 42, TransientRate: 0.3, TimeoutRate: 0.1})
	n := 2000
	for i := 0; i < n; i++ {
		in.Decide("cars", fmt.Sprintf("q-%d", i), 1)
	}
	st := in.Stats()
	if st.Decisions != n {
		t.Fatalf("decisions = %d, want %d", st.Decisions, n)
	}
	// Transients drawn at 0.3; timeouts only fire when the transient draw
	// missed, so their effective rate is ~0.1 of the remainder.
	if st.Transients < 500 || st.Transients > 700 {
		t.Errorf("transients = %d, want ~600 of %d", st.Transients, n)
	}
	if st.Timeouts < 100 || st.Timeouts > 200 {
		t.Errorf("timeouts = %d, want ~140 of %d", st.Timeouts, n)
	}
}

// TestFailFirstAttempts verifies the deterministic retry-exercise knob.
func TestFailFirstAttempts(t *testing.T) {
	in := New(Profile{Seed: 3, FailFirstAttempts: 2})
	for attempt := 1; attempt <= 2; attempt++ {
		if out := in.Decide("cars", "q", attempt); !errors.Is(out.Err, ErrTransient) {
			t.Fatalf("attempt %d should fail transiently, got %v", attempt, out.Err)
		}
	}
	if out := in.Decide("cars", "q", 3); out.Err != nil {
		t.Fatalf("attempt 3 should succeed, got %v", out.Err)
	}
}

// TestTruncation verifies truncation outcomes carry the profile's row cap,
// with the cap clamped to at least 1.
func TestTruncation(t *testing.T) {
	in := New(Profile{Seed: 5, TruncateRate: 1})
	out := in.Decide("cars", "q", 1)
	if out.Err != nil || out.TruncateTo != 1 {
		t.Fatalf("expected truncation to clamped cap 1, got %+v", out)
	}
	in = New(Profile{Seed: 5, TruncateRate: 1, TruncateTo: 7})
	if out := in.Decide("cars", "q", 1); out.TruncateTo != 7 {
		t.Fatalf("TruncateTo = %d, want 7", out.TruncateTo)
	}
}

// TestRetryable classifies errors for the mediator's retry loop.
func TestRetryable(t *testing.T) {
	if !Retryable(ErrTransient) || !Retryable(ErrTimeout) || !Retryable(context.DeadlineExceeded) {
		t.Error("transient/timeout/deadline errors must be retryable")
	}
	if !Retryable(fmt.Errorf("wrapped: %w", ErrTransient)) {
		t.Error("wrapped transient must be retryable")
	}
	if Retryable(nil) || Retryable(errors.New("capability refusal")) {
		t.Error("nil and arbitrary errors must not be retryable")
	}
}

// TestAttemptContext round-trips the attempt tag.
func TestAttemptContext(t *testing.T) {
	if got := Attempt(context.Background()); got != 1 {
		t.Fatalf("default attempt = %d, want 1", got)
	}
	ctx := WithAttempt(context.Background(), 4)
	if got := Attempt(ctx); got != 4 {
		t.Fatalf("attempt = %d, want 4", got)
	}
}

// TestProfileEnabled exercises the zero-profile gate.
func TestProfileEnabled(t *testing.T) {
	if (Profile{}).Enabled() {
		t.Error("zero profile must be disabled")
	}
	for _, p := range []Profile{
		{TransientRate: 0.1}, {TimeoutRate: 0.1}, {LatencyJitter: time.Millisecond},
		{TruncateRate: 0.1}, {FailFirstAttempts: 1},
	} {
		if !p.Enabled() {
			t.Errorf("profile %+v should be enabled", p)
		}
	}
}

// TestResetStats zeroes the accounting.
func TestResetStats(t *testing.T) {
	in := New(Profile{Seed: 1, TransientRate: 1})
	in.Decide("cars", "q", 1)
	if in.Stats().Decisions != 1 {
		t.Fatal("expected one decision")
	}
	in.ResetStats()
	if in.Stats() != (Stats{}) {
		t.Fatalf("stats after reset = %+v", in.Stats())
	}
}

// TestFlapSchedule verifies the scripted up/down windows: FlapUp attempts
// succeed, FlapDown attempts fail with ErrTransient, repeating, keyed by
// the injector's attempt ordinal.
func TestFlapSchedule(t *testing.T) {
	in := New(Profile{FlapUp: 3, FlapDown: 2})
	var pattern []bool
	for i := 0; i < 12; i++ {
		out := in.Decide("cars", fmt.Sprintf("q-%d", i), 1)
		pattern = append(pattern, out.Err != nil)
		if out.Err != nil && !errors.Is(out.Err, ErrTransient) {
			t.Fatalf("flap failure %d is %v, want ErrTransient", i, out.Err)
		}
	}
	want := []bool{false, false, false, true, true,
		false, false, false, true, true, false, false}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("flap pattern = %v, want %v", pattern, want)
		}
	}
	st := in.Stats()
	if st.FlapFailures != 4 || st.Transients != 4 {
		t.Fatalf("stats = %+v, want 4 flap failures counted as transients", st)
	}
}

// TestFlapScheduleDeterministic replays the same schedule on two injectors.
func TestFlapScheduleDeterministic(t *testing.T) {
	p := Profile{Seed: 9, FlapUp: 2, FlapDown: 3, TransientRate: 0.2}
	a, b := New(p), New(p)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("q-%d", i)
		oa, ob := a.Decide("s", key, 1), b.Decide("s", key, 1)
		if (oa.Err == nil) != (ob.Err == nil) {
			t.Fatalf("attempt %d diverged: %v vs %v", i, oa.Err, ob.Err)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// TestFlapEnabled confirms a flap-only profile counts as enabled.
func TestFlapEnabled(t *testing.T) {
	if !(Profile{FlapUp: 1, FlapDown: 1}).Enabled() {
		t.Fatal("flap-only profile should be Enabled")
	}
	if (Profile{FlapUp: 5}).Enabled() {
		t.Fatal("FlapUp without FlapDown must not enable injection")
	}
}

// TestFlapBoundaryOrdinals pins the exact ordinals the flap window flips
// on: the first down ordinal is FlapUp itself, the last is period-1, and
// the cycle wraps cleanly at every period multiple.
func TestFlapBoundaryOrdinals(t *testing.T) {
	up, down := 3, 2
	in := New(Profile{FlapUp: up, FlapDown: down})
	period := up + down
	for ord := 0; ord < 4*period; ord++ {
		out := in.Decide("cars", "q", 1)
		wantDown := ord%period >= up
		if (out.Err != nil) != wantDown {
			t.Fatalf("ordinal %d: down=%v, want %v", ord, out.Err != nil, wantDown)
		}
		switch ord % period {
		case up:
			if out.Err == nil {
				t.Fatalf("ordinal %d is the first down slot of its cycle and served", ord)
			}
		case period - 1:
			if out.Err == nil {
				t.Fatalf("ordinal %d is the last down slot of its cycle and served", ord)
			}
		case 0:
			if out.Err != nil {
				t.Fatalf("ordinal %d starts a cycle and must serve", ord)
			}
		}
	}
}

// TestFlapAlwaysDown: FlapUp 0 means no up window at all — every attempt
// fails on schedule.
func TestFlapAlwaysDown(t *testing.T) {
	in := New(Profile{FlapUp: 0, FlapDown: 4})
	for i := 0; i < 10; i++ {
		if out := in.Decide("cars", "q", 1); out.Err == nil {
			t.Fatalf("attempt %d served under FlapUp=0", i)
		}
	}
	if st := in.Stats(); st.FlapFailures != 10 {
		t.Fatalf("FlapFailures = %d, want 10", st.FlapFailures)
	}
}

// TestFlapAlternating: the tightest schedule (1 up, 1 down) flips on every
// single ordinal.
func TestFlapAlternating(t *testing.T) {
	in := New(Profile{FlapUp: 1, FlapDown: 1})
	for i := 0; i < 12; i++ {
		out := in.Decide("cars", "q", 1)
		if wantDown := i%2 == 1; (out.Err != nil) != wantDown {
			t.Fatalf("ordinal %d: down=%v, want %v", i, out.Err != nil, wantDown)
		}
	}
}

// TestFlapResetStatsRewindsSchedule: the ordinal is the Decisions counter,
// so ResetStats rewinds the flap position to the start of an up window.
func TestFlapResetStatsRewindsSchedule(t *testing.T) {
	in := New(Profile{FlapUp: 2, FlapDown: 2})
	// Advance into a down window.
	for i := 0; i < 3; i++ {
		in.Decide("cars", "q", 1)
	}
	if out := in.Decide("cars", "q", 1); out.Err == nil {
		t.Fatal("ordinal 3 should be down")
	}
	in.ResetStats()
	if out := in.Decide("cars", "q", 1); out.Err != nil {
		t.Fatalf("after ResetStats the schedule must restart up: %v", out.Err)
	}
}
