// Package source simulates autonomous web databases as QPIAD sees them: a
// relation hidden behind a form-style query interface with restricted
// access patterns. The mediator can only interact with a Source through
// Fetch (or its wrappers Query and QueryCtx), which enforces the capability
// profile the paper assumes:
//
//   - only attributes exposed by the local schema (and declared bindable)
//     can be constrained;
//   - null values cannot be bound ("list cars whose Body Style is missing"
//     is rejected) unless the profile explicitly allows it — the paper
//     notes web sources such as Yahoo! Autos, Cars.com and Realtor.com
//     refuse such queries, while the AllReturned/AllRanked baselines
//     require them;
//   - results may be truncated at a per-query cap, and a total query budget
//     may be imposed (the paper's "limits on the number of queries we can
//     pose to the autonomous source").
//
// Sources can additionally misbehave: attach a faults.Injector (SetFaults)
// and accepted queries suffer deterministic, seeded transient errors,
// timeouts, latency jitter and page truncation. Fetch and QueryCtx honor
// context deadlines and cancellation, so the mediator can bound how long it
// waits.
//
// Every query, transferred tuple, failed attempt and retry is accounted,
// which is what the efficiency evaluation (Figure 8) and the /metrics
// endpoint read.
package source

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"qpiad/internal/breaker"
	"qpiad/internal/faults"
	"qpiad/internal/latency"
	"qpiad/internal/relation"
)

// Typed errors the mediator can branch on.
var (
	// ErrUnsupportedAttr marks a predicate on an attribute the source does
	// not expose or does not allow binding.
	ErrUnsupportedAttr = errors.New("source: unsupported query attribute")
	// ErrNullBinding marks an is-null predicate against a source that
	// refuses null bindings.
	ErrNullBinding = errors.New("source: null value binding not supported")
	// ErrQueryBudget marks exhaustion of the source's query budget.
	ErrQueryBudget = errors.New("source: query budget exhausted")
	// ErrRangeBinding marks a range predicate against an equality-only form.
	ErrRangeBinding = errors.New("source: range predicates not supported")
)

// Capabilities is a source's access-pattern profile.
type Capabilities struct {
	// BindableAttrs restricts which attributes may carry predicates. Empty
	// means every local-schema attribute is bindable.
	BindableAttrs []string
	// AllowNullBinding permits is-null predicates. Web sources in the paper
	// do not support this; it exists so the AllReturned and AllRanked
	// baselines can be run at all.
	AllowNullBinding bool
	// DisallowRange rejects range (between/</>) predicates, modelling
	// equality-only web forms.
	DisallowRange bool
	// MaxResults truncates each result set (0 = unlimited), modelling
	// paginated web sources that expose only the top of a result.
	MaxResults int
	// MaxQueries is the total query budget (0 = unlimited).
	MaxQueries int
	// Latency is a simulated per-query network/processing delay, applied
	// to every accepted query. It makes the cost of issuing many rewritten
	// queries — and the benefit of issuing them concurrently — observable
	// in experiments and benchmarks.
	Latency time.Duration
}

// Stats is the access accounting the efficiency evaluation reads.
type Stats struct {
	// Queries is the number of accepted query attempts (retries included:
	// each retry is a fresh submission of the web form).
	Queries int
	// TuplesReturned is the total number of tuples transferred. Failed
	// attempts transfer nothing, so retries never double-count.
	TuplesReturned int
	// Rejected is the number of queries refused for capability reasons
	// (unsupported binding, null binding, range binding, budget).
	Rejected int
	// Errors is the number of accepted attempts that subsequently failed:
	// injected transient errors, timeouts, context cancellation.
	Errors int
	// Retries is the number of accepted attempts beyond each query's first
	// (attempt number > 1, as tagged by the mediator's retry loop).
	Retries int
	// BreakerRejected is the number of queries refused at admission by an
	// attached circuit breaker (circuit open / probes busy). These never
	// reach the source: no budget is consumed and no latency is paid, so
	// they are accounted apart from capability Rejected.
	BreakerRejected int
}

// latencyBuckets is the histogram resolution: bucket i holds observations
// with duration <= 1µs << i, the last bucket is the overflow.
const latencyBuckets = 24

// LatencyStats is a fixed-bucket exponential latency histogram over the
// service time of accepted query attempts (successes and failures).
type LatencyStats struct {
	// Count is the number of observations.
	Count int
	// Sum is the total observed duration.
	Sum time.Duration
	// Buckets[i] counts observations <= BucketBound(i); the last bucket
	// absorbs everything slower.
	Buckets [latencyBuckets]int
}

// BucketBound returns the inclusive upper bound of histogram bucket i.
func BucketBound(i int) time.Duration {
	if i >= latencyBuckets-1 {
		return time.Duration(1<<63 - 1)
	}
	return time.Microsecond << i
}

// observe files one duration.
func (l *LatencyStats) observe(d time.Duration) {
	l.Count++
	l.Sum += d
	for i := 0; i < latencyBuckets; i++ {
		if d <= BucketBound(i) {
			l.Buckets[i]++
			return
		}
	}
}

// Percentile returns the upper bound of the bucket holding the p-th
// quantile (p in [0, 1]), 0 when nothing was observed. Bucket bounds make
// it an over-estimate by at most one bucket width.
func (l LatencyStats) Percentile(p float64) time.Duration {
	if l.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := int(latency.Rank(p, int64(l.Count)))
	cum := 0
	for i := 0; i < latencyBuckets; i++ {
		cum += l.Buckets[i]
		if cum >= target {
			if i == latencyBuckets-1 {
				return l.Sum // overflow bucket: sum is the only honest bound
			}
			return BucketBound(i)
		}
	}
	return l.Sum
}

// Metrics bundles a source's full accounting: counters plus the latency
// histogram. This is what GET /metrics serializes.
type Metrics struct {
	Stats
	Latency LatencyStats
}

// Source wraps a backing relation behind the restricted interface.
type Source struct {
	name string
	rel  *relation.Relation
	caps Capabilities

	bindable map[string]bool // nil when all local attributes are bindable

	mu      sync.Mutex
	stats   Stats
	latency LatencyStats
	faults  *faults.Injector
	breaker *breaker.Breaker
}

// New wraps rel as an autonomous source with the given capabilities.
// The relation's schema is the source's local schema.
func New(name string, rel *relation.Relation, caps Capabilities) *Source {
	s := &Source{name: name, rel: rel, caps: caps}
	if len(caps.BindableAttrs) > 0 {
		s.bindable = make(map[string]bool, len(caps.BindableAttrs))
		for _, a := range caps.BindableAttrs {
			s.bindable[a] = true
		}
	}
	return s
}

// Name returns the source name.
func (s *Source) Name() string { return s.name }

// Schema returns the source's exported (local) schema.
func (s *Source) Schema() *relation.Schema { return s.rel.Schema }

// Capabilities returns the source's access profile.
func (s *Source) Capabilities() Capabilities { return s.caps }

// SetFaults attaches (or, with nil, detaches) a fault injector. Accepted
// queries then suffer the injector's seeded faults. Call before serving
// queries; the injector itself is concurrency-safe.
func (s *Source) SetFaults(in *faults.Injector) {
	s.mu.Lock()
	s.faults = in
	s.mu.Unlock()
}

// Faults returns the attached fault injector, nil when the source is
// perfectly reliable.
func (s *Source) Faults() *faults.Injector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

// SetBreaker attaches (or, with nil, detaches) a circuit breaker. Every
// Fetch then passes through its admission check: open-circuit
// rejections return an error wrapping breaker.ErrOpen without consuming
// budget or touching the backing relation, and every admitted attempt's
// outcome feeds the breaker's failure window and health score. The breaker
// itself is concurrency-safe.
func (s *Source) SetBreaker(b *breaker.Breaker) {
	s.mu.Lock()
	s.breaker = b
	s.mu.Unlock()
}

// Breaker returns the attached circuit breaker, nil when admission is
// unguarded.
func (s *Source) Breaker() *breaker.Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.breaker
}

// Size returns the source's cardinality. Real autonomous sources do not
// advertise this; it exists for oracular evaluation and dataset setup, not
// for the mediator's online path.
func (s *Source) Size() int { return s.rel.Len() }

// Relation exposes the backing relation for oracular evaluation only.
func (s *Source) Relation() *relation.Relation { return s.rel }

// Supports reports whether the named attribute exists in the local schema
// and accepts predicate bindings.
func (s *Source) Supports(attr string) bool {
	if !s.rel.Schema.Has(attr) {
		return false
	}
	if s.bindable == nil {
		return true
	}
	return s.bindable[attr]
}

// validate checks q against the capability profile.
func (s *Source) validate(q relation.Query) error {
	for _, p := range q.Preds {
		if !s.Supports(p.Attr) {
			return fmt.Errorf("%w: %q on source %s", ErrUnsupportedAttr, p.Attr, s.name)
		}
		switch p.Op {
		case relation.OpIsNull:
			if !s.caps.AllowNullBinding {
				return fmt.Errorf("%w: %q on source %s", ErrNullBinding, p.Attr, s.name)
			}
		case relation.OpEq, relation.OpNotNull:
			// always acceptable
		default:
			if s.caps.DisallowRange {
				return fmt.Errorf("%w: %s on source %s", ErrRangeBinding, p, s.name)
			}
		}
	}
	return nil
}

// admitSignalKey carries the mediator's admission callback.
type admitSignalKey struct{}

// WithAdmitSignal arranges for fn to be called (at most once) the moment
// the source ACCEPTS the query — capability checks passed and budget
// consumed, before execution starts. Rejected queries do not signal. The
// mediator's parallel fetch path uses this to serialize budget consumption
// across concurrent rewrites: the next query is released only once the
// previous one's budget decision is final.
func WithAdmitSignal(ctx context.Context, fn func()) context.Context {
	var once sync.Once
	return context.WithValue(ctx, admitSignalKey{}, func() { once.Do(fn) })
}

// signalAdmit fires the admission callback, if any.
func signalAdmit(ctx context.Context) {
	if fn, ok := ctx.Value(admitSignalKey{}).(func()); ok {
		fn()
	}
}

// Query runs q against the source under its capability profile and returns
// copies of the matching tuples (the "transferred" rows). It is QueryCtx
// without deadline or cancellation.
func (s *Source) Query(q relation.Query) ([]relation.Tuple, error) {
	//lint:allow ctxflow audited root: context-free convenience wrapper over QueryCtx
	return s.QueryCtx(context.Background(), q)
}

// QueryCtx is Fetch keeping every transferred tuple.
func (s *Source) QueryCtx(ctx context.Context, q relation.Query) ([]relation.Tuple, error) {
	rows, _, err := s.Fetch(ctx, q, nil)
	return rows, err
}

// Fetch runs q under the capability profile, honoring the context's
// deadline/cancellation, the attached fault injector, and the attached
// circuit breaker. Aggregate parts of q are ignored: autonomous web
// sources return tuples, and the mediator aggregates. Rejected queries —
// capability refusals and open-circuit admission refusals alike — do not
// consume budget and pay no latency; accepted attempts are accounted
// (Queries, plus Retries per the context's attempt tag) even when they
// subsequently fail, and their outcome is reported to the breaker:
// transient/timeout failures feed its failure window, successes feed its
// health score, and cancellations are neutral.
//
// keep is the caller's post-filter: it sees every transferred tuple during
// the scan and may read it, not hold it. Only the tuples it accepts are
// copied out, in scan order; a nil keep accepts all. The result cap and
// the accounting count transferred tuples, kept or not, and transferred
// reports that count.
func (s *Source) Fetch(ctx context.Context, q relation.Query, keep func(relation.Tuple) bool) (_ []relation.Tuple, transferred int, err error) {
	if err := s.validate(q); err != nil {
		s.mu.Lock()
		s.stats.Rejected++
		s.mu.Unlock()
		return nil, 0, err
	}
	attempt := faults.Attempt(ctx)
	s.mu.Lock()
	br := s.breaker
	s.mu.Unlock()
	var call *breaker.Call
	if br != nil {
		c, aerr := br.Allow()
		if aerr != nil {
			s.mu.Lock()
			s.stats.BreakerRejected++
			s.mu.Unlock()
			return nil, 0, fmt.Errorf("source %s: %w", s.name, aerr)
		}
		call = c
	}
	s.mu.Lock()
	if s.caps.MaxQueries > 0 && s.stats.Queries >= s.caps.MaxQueries {
		s.stats.Rejected++
		s.mu.Unlock()
		// A budget refusal says nothing about source health: release the
		// admitted call without feeding the failure window.
		call.Observe(0, breaker.ClassNeutral)
		return nil, 0, fmt.Errorf("%w: source %s (budget %d)", ErrQueryBudget, s.name, s.caps.MaxQueries)
	}
	s.stats.Queries++
	if attempt > 1 {
		s.stats.Retries++
	}
	inj := s.faults
	s.mu.Unlock()
	signalAdmit(ctx) // budget decision is final: release the next query

	start := time.Now()
	defer func() { call.Observe(time.Since(start), classify(err)) }()
	var fault faults.Outcome
	if inj != nil {
		fault = inj.Decide(s.name, q.Key(), attempt)
	}

	// A timed-out attempt blocks until its deadline actually expires (the
	// caller pays the wait), or fails immediately when it has none.
	if fault.Err != nil && errors.Is(fault.Err, faults.ErrTimeout) {
		if _, hasDeadline := ctx.Deadline(); hasDeadline {
			<-ctx.Done()
		}
		s.recordFailure(start)
		return nil, 0, fault.Err
	}

	if delay := s.caps.Latency + fault.Latency; delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			s.recordFailure(start)
			return nil, 0, fmt.Errorf("source %s: %w", s.name, ctx.Err())
		}
	}
	if fault.Err != nil {
		s.recordFailure(start)
		return nil, 0, fault.Err
	}
	if err := ctx.Err(); err != nil {
		s.recordFailure(start)
		return nil, 0, fmt.Errorf("source %s: %w", s.name, err)
	}

	// Stream the scan instead of materializing Select's full result: the
	// result cap (capability MaxResults and/or an injected page truncation)
	// is pushed into the pipeline, so a truncated page over a huge relation
	// stops scanning at the cap. keep runs inside the scan, and the tuples
	// it accepts are collected as they are, still aliasing the store. Reads
	// never race a mutation (see relation.Relation), so they stay valid
	// until the copy below, which is the wire boundary: every returned
	// tuple is a copy the caller owns, never aliasing the backing store.
	limit := 0 // 0 = unlimited
	if s.caps.MaxResults > 0 {
		limit = s.caps.MaxResults
	}
	if fault.TruncateTo > 0 && (limit == 0 || fault.TruncateTo < limit) {
		limit = fault.TruncateTo
	}
	scan := s.rel.Scan(q)
	if limit > 0 {
		scan = scan.Take(limit)
	}
	out := scan.Filter(func(t relation.Tuple) bool {
		transferred++
		return keep == nil || keep(t)
	}).Collect()
	// One allocation holds every kept tuple. Each is capped at its length,
	// so an append to one reallocates instead of writing into the next.
	a := s.rel.Schema.Len()
	slab := make([]relation.Value, len(out)*a)
	for i, t := range out {
		row := slab[i*a : (i+1)*a : (i+1)*a]
		copy(row, t)
		out[i] = row
	}
	elapsed := time.Since(start)
	s.mu.Lock()
	s.stats.TuplesReturned += transferred
	s.latency.observe(elapsed)
	s.mu.Unlock()
	return out, transferred, nil
}

// classify maps an attempt outcome to what it teaches the breaker:
// transient faults and timeouts are failures; caller cancellation and
// anything else deterministic is neutral (it says nothing about source
// health).
func classify(err error) breaker.Class {
	switch {
	case err == nil:
		return breaker.ClassSuccess
	case errors.Is(err, context.Canceled):
		return breaker.ClassNeutral
	case faults.Retryable(err):
		return breaker.ClassFailure
	default:
		return breaker.ClassNeutral
	}
}

// recordFailure accounts one accepted-but-failed attempt.
func (s *Source) recordFailure(start time.Time) {
	elapsed := time.Since(start)
	s.mu.Lock()
	s.stats.Errors++
	s.latency.observe(elapsed)
	s.mu.Unlock()
}

// Stats returns a snapshot of the access accounting.
func (s *Source) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Metrics returns the full accounting snapshot: counters plus the latency
// histogram.
func (s *Source) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Metrics{Stats: s.stats, Latency: s.latency}
}

// ResetStats zeroes the accounting (between experiment runs), including the
// latency histogram and any attached injector's fault counters.
func (s *Source) ResetStats() {
	s.mu.Lock()
	s.stats = Stats{}
	s.latency = LatencyStats{}
	inj := s.faults
	s.mu.Unlock()
	if inj != nil {
		inj.ResetStats()
	}
}
