// Package faults simulates the failure modes of autonomous web sources:
// transient errors, hard timeouts, per-query latency jitter, and truncated
// result pages. QPIAD's premise is that sources are uncooperative; this
// package makes them *reproducibly* uncooperative, so every experiment and
// test can replay the exact same flaky source.
//
// Determinism is the core contract. A fault decision is a pure function of
// (profile seed, source name, query key, attempt number) — it does not
// depend on wall-clock time, goroutine scheduling, or the order in which
// concurrent queries reach the source. Two runs with the same seed see the
// same faults even when the mediator issues rewrites in parallel, which is
// what makes graceful-degradation results byte-for-byte reproducible.
package faults

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// Typed fault errors the mediator's retry policy classifies on.
var (
	// ErrTransient marks a query attempt that failed for a transient,
	// retryable reason (dropped connection, HTTP 503, parse glitch).
	ErrTransient = errors.New("faults: transient source error")
	// ErrTimeout marks a query attempt that exceeded its deadline. When the
	// attempt carries a context deadline the source blocks until it expires
	// before returning this error, so the caller pays the real cost.
	ErrTimeout = errors.New("faults: source timed out")
)

// Retryable reports whether an error is worth retrying: injected transient
// errors and timeouts are; capability rejections and budget exhaustion are
// deterministic refusals and are not.
func Retryable(err error) bool {
	return errors.Is(err, ErrTransient) ||
		errors.Is(err, ErrTimeout) ||
		errors.Is(err, context.DeadlineExceeded)
}

// Profile describes one source's failure behavior. The zero value injects
// nothing.
type Profile struct {
	// Seed drives every fault decision. Decisions are deterministic per
	// (Seed, source, query key, attempt); concurrency cannot reorder them.
	Seed int64
	// TransientRate is the per-attempt probability of ErrTransient.
	TransientRate float64
	// TimeoutRate is the per-attempt probability of a hard timeout: the
	// attempt blocks until its context deadline expires (or fails
	// immediately when it has none) and returns ErrTimeout.
	TimeoutRate float64
	// LatencyJitter adds a uniform [0, LatencyJitter) delay to every
	// accepted attempt, on top of the source's base Capabilities.Latency.
	LatencyJitter time.Duration
	// TruncateRate is the per-attempt probability that a successful result
	// page is cut to TruncateTo rows — modelling a source that silently
	// returns a partial page under load.
	TruncateRate float64
	// TruncateTo is the row cap applied on truncation (min 1).
	TruncateTo int
	// FailFirstAttempts deterministically fails every query's first N
	// attempts with ErrTransient, regardless of TransientRate — the knob
	// retry tests use to exercise the backoff path without probability.
	FailFirstAttempts int
	// FlapUp / FlapDown script a deterministic flap schedule: the source
	// serves FlapUp accepted attempts normally, then fails the next
	// FlapDown attempts with ErrTransient, repeating. The window position
	// is keyed by the injector's attempt ordinal (the number of Decide
	// calls so far), so a sequentially-issued workload sees the exact same
	// up/down pattern every run — the reproducibility knob behind breaker
	// open/half-open/close transition tests and the ext-resilience flap
	// experiment. FlapDown <= 0 disables the schedule.
	FlapUp   int
	FlapDown int
}

// Enabled reports whether the profile can inject anything at all.
func (p Profile) Enabled() bool {
	return p.TransientRate > 0 || p.TimeoutRate > 0 || p.LatencyJitter > 0 ||
		p.TruncateRate > 0 || p.FailFirstAttempts > 0 || p.FlapDown > 0
}

// Outcome is one attempt's fault decision.
type Outcome struct {
	// Err is non-nil when the attempt must fail (ErrTransient/ErrTimeout,
	// wrapped with source/attempt context).
	Err error
	// Latency is extra delay applied to the attempt before it resolves.
	Latency time.Duration
	// TruncateTo, when > 0, caps the attempt's result rows.
	TruncateTo int
}

// Stats counts the faults an injector has actually dealt.
type Stats struct {
	// Decisions is the number of Decide calls (one per accepted attempt).
	Decisions int
	// Transients / Timeouts / Truncations count injected faults by kind.
	Transients  int
	Timeouts    int
	Truncations int
	// FlapFailures counts attempts failed by the scripted flap schedule
	// (a subset of Transients).
	FlapFailures int
}

// Injector deals faults per an immutable Profile and counts what it dealt.
// It is safe for concurrent use. When the profile scripts a flap schedule,
// the Decisions counter doubles as the attempt ordinal that positions each
// attempt in the up/down cycle.
type Injector struct {
	p  Profile
	mu sync.Mutex
	st Stats
}

// New builds an injector for the profile.
func New(p Profile) *Injector {
	if p.TruncateRate > 0 && p.TruncateTo < 1 {
		p.TruncateTo = 1
	}
	return &Injector{p: p}
}

// Profile returns the injector's profile.
func (in *Injector) Profile() Profile { return in.p }

// Stats returns a snapshot of the injected-fault accounting.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.st
}

// ResetStats zeroes the accounting (between experiment runs).
func (in *Injector) ResetStats() {
	in.mu.Lock()
	in.st = Stats{}
	in.mu.Unlock()
}

// Decide returns the fault outcome for one query attempt. The seeded
// decision is a pure function of (profile seed, source, queryKey, attempt).
// A scripted flap schedule (FlapUp/FlapDown) is additionally keyed by the
// attempt ordinal — the injector's Decide count — and overrides the seeded
// draws during down windows; it is exactly reproducible for sequentially
// issued workloads.
func (in *Injector) Decide(source, queryKey string, attempt int) Outcome {
	rng := rand.New(rand.NewSource(subSeed(in.p.Seed, source, queryKey, attempt)))
	// Draw in a fixed order so adding a fault kind never reshuffles the
	// decisions of the kinds before it.
	uTransient := rng.Float64()
	uTimeout := rng.Float64()
	uJitter := rng.Float64()
	uTruncate := rng.Float64()

	var out Outcome
	if in.p.LatencyJitter > 0 {
		out.Latency = time.Duration(uJitter * float64(in.p.LatencyJitter))
	}

	in.mu.Lock()
	defer in.mu.Unlock()
	ord := in.st.Decisions
	in.st.Decisions++

	flapDown := false
	if in.p.FlapDown > 0 {
		period := in.p.FlapUp + in.p.FlapDown
		flapDown = ord%period >= in.p.FlapUp
	}
	switch {
	case flapDown:
		out.Err = fmt.Errorf("%w (source %s, attempt %d, flap down)", ErrTransient, source, attempt)
		in.st.FlapFailures++
	case attempt <= in.p.FailFirstAttempts:
		out.Err = fmt.Errorf("%w (source %s, attempt %d, forced)", ErrTransient, source, attempt)
	case uTransient < in.p.TransientRate:
		out.Err = fmt.Errorf("%w (source %s, attempt %d)", ErrTransient, source, attempt)
	case uTimeout < in.p.TimeoutRate:
		out.Err = fmt.Errorf("%w (source %s, attempt %d)", ErrTimeout, source, attempt)
	case uTruncate < in.p.TruncateRate:
		out.TruncateTo = in.p.TruncateTo
	}

	switch {
	case errors.Is(out.Err, ErrTransient):
		in.st.Transients++
	case errors.Is(out.Err, ErrTimeout):
		in.st.Timeouts++
	case out.TruncateTo > 0:
		in.st.Truncations++
	}
	return out
}

// subSeed hashes the decision coordinates into an rng seed.
func subSeed(seed int64, source, queryKey string, attempt int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(source))
	h.Write([]byte{0x1f})
	h.Write([]byte(queryKey))
	h.Write([]byte{0x1f})
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(attempt) >> (8 * i))
	}
	h.Write(buf[:])
	return int64(h.Sum64())
}

// attemptKey carries the retry attempt number through a context.
type attemptKey struct{}

// WithAttempt tags ctx with a 1-based retry attempt number. The source
// reads it to key fault decisions and count retries.
func WithAttempt(ctx context.Context, attempt int) context.Context {
	return context.WithValue(ctx, attemptKey{}, attempt)
}

// Attempt extracts the attempt number from ctx, defaulting to 1.
func Attempt(ctx context.Context) int {
	if n, ok := ctx.Value(attemptKey{}).(int); ok && n > 0 {
		return n
	}
	return 1
}
