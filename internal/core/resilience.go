package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"qpiad/internal/breaker"
	"qpiad/internal/faults"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// RetryPolicy bounds how hard the mediator works to get one query through a
// flaky source. The zero value means "3 attempts, small exponential
// backoff, no deadlines" — safe for perfectly reliable sources, where no
// retryable error ever occurs and the policy is inert.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per query (first try
	// included). <= 0 means the default of 3.
	MaxAttempts int
	// BaseBackoff is the delay before the second attempt; it doubles per
	// attempt. <= 0 means the default of 2ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the per-attempt backoff. <= 0 means the default of
	// 250ms.
	MaxBackoff time.Duration
	// AttemptTimeout, when > 0, bounds each individual attempt with a
	// context deadline (injected timeouts block until it expires).
	AttemptTimeout time.Duration
	// QueryDeadline, when > 0, bounds the whole query — all attempts plus
	// backoffs. Once it expires no further attempts are made.
	QueryDeadline time.Duration
	// JitterSeed seeds the backoff jitter, keyed per query, so sleep
	// schedules are reproducible run to run.
	JitterSeed int64
}

// DefaultRetryPolicy is the resolved zero-value policy.
func DefaultRetryPolicy() RetryPolicy { return RetryPolicy{}.withDefaults() }

// withDefaults resolves zero fields to their defaults.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 2 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 250 * time.Millisecond
	}
	return p
}

// queryable is the slice of the source API the fetch path needs:
// source.Source.Fetch.
type queryable interface {
	Fetch(context.Context, relation.Query, func(relation.Tuple) bool) ([]relation.Tuple, int, error)
}

// fetchResult is the outcome of fetching one query, retries included.
type fetchResult struct {
	rows        []relation.Tuple // the transferred tuples the query's keep accepted
	transferred int              // tuples the source sent, kept or not
	err         error            // final error, nil on success
	attempts    int              // attempts actually made (0 when skipped unissued)
}

// errSkippedBudget marks a query the mediator never sent because the source
// had already reported budget exhaustion. errors.Is(err,
// source.ErrQueryBudget) holds, so callers classify skips like the refusal
// that triggered them.
var errSkippedBudget = fmt.Errorf("core: rewrite not issued: %w", source.ErrQueryBudget)

// errSkippedOpen marks a query the mediator never sent because the source's
// circuit breaker had already rejected an earlier query in the same plan.
// errors.Is(err, breaker.ErrOpen) holds, so callers classify skips like the
// rejection that triggered them, and the skipped rewrites' selectivity
// estimates are accounted as saved tuples (ResultSet.EstSavedTuples).
var errSkippedOpen = fmt.Errorf("core: rewrite not issued: %w", breaker.ErrOpen)

// fetchOne issues q with bounded retries: exponential backoff with seeded
// jitter between attempts, per-attempt and per-query deadlines from the
// policy. Only retryable errors (transient faults, timeouts) are retried;
// deterministic refusals — capability rejections (ErrUnsupportedAttr,
// ErrNullBinding, ErrRangeBinding), budget exhaustion, and open-circuit
// admission rejections (breaker.ErrOpen) — return immediately: retrying a
// source that refused on principle only wastes its budget. keep is the
// source's post-filter (see source.Source.Fetch); nil keeps every row.
func fetchOne(ctx context.Context, src queryable, q relation.Query, keep func(relation.Tuple) bool, pol RetryPolicy) fetchResult {
	pol = pol.withDefaults()
	if pol.QueryDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, pol.QueryDeadline)
		defer cancel()
	}
	var rng *rand.Rand
	var res fetchResult
	for attempt := 1; ; attempt++ {
		res.attempts = attempt
		actx := faults.WithAttempt(ctx, attempt)
		cancel := context.CancelFunc(func() {})
		if pol.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(actx, pol.AttemptTimeout)
		}
		res.rows, res.transferred, res.err = src.Fetch(actx, q, keep)
		cancel()
		if res.err == nil || !faults.Retryable(res.err) ||
			attempt >= pol.MaxAttempts || ctx.Err() != nil {
			return res
		}
		d := pol.BaseBackoff << (attempt - 1)
		if d <= 0 || d > pol.MaxBackoff {
			d = pol.MaxBackoff
		}
		// Half fixed, half jittered; the rng is keyed by (seed, query) so a
		// rerun replays the same sleep schedule.
		if rng == nil {
			rng = rand.New(rand.NewSource(jitterSeed(pol.JitterSeed, q.Key())))
		}
		d = d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			res.err = fmt.Errorf("core: canceled during retry backoff: %w", ctx.Err())
			return res
		}
	}
}

// jitterSeed hashes (seed, query key) into a backoff-jitter rng seed.
func jitterSeed(seed int64, queryKey string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(queryKey))
	return int64(h.Sum64())
}

// fetcher is the mediator's one rewrite-fetch engine. Every fan-out of
// rewritten queries — select and stream, aggregates, correlated sources,
// and each side of a two-way or chain join — issues through it.
//
// startFetch issues the queries against one source, at most parallel at a
// time (one at a time when parallel <= 1), each under the retry policy and
// the caller's context — cancelling ctx stops in-flight attempts and retry
// backoffs promptly. Results are positional and each is readable as soon as
// it resolves (result), so callers fold them in the original precision
// order regardless of completion order; fetchAll is start-then-wait.
//
// Budget-aware early stop: once the source reports ErrQueryBudget, the
// remaining queries are not issued at all — they resolve to errSkippedBudget
// (errors.Is(err, source.ErrQueryBudget)) without touching the source, so
// the Rejected counter reflects exactly one refusal. Budget consumption is
// deterministic because queries are admitted in index order: gates[i] opens
// when query i-1 has been admitted (budget consumed, via
// source.WithAdmitSignal) or has finished, while execution itself still
// overlaps up to the parallelism bound.
//
// Breaker-aware early stop mirrors the budget behavior: once the source's
// circuit breaker rejects a query (breaker.ErrOpen), the remaining queries
// resolve to errSkippedOpen without being issued. One rejection per plan is
// enough evidence — hammering an open circuit with the rest of the top-K
// would only inflate BreakerRejected without retrieving anything.
//
// Each query is fetched with its positional post-filter in keeps (see
// source.Source.Fetch); a nil keeps, or a nil entry, keeps every row.
// stopIssuing (the streaming top-N bound) resolves every not-yet-admitted
// query to ErrEarlyStop.
//
// Note: when retries race with successors' admissions (faults + budget +
// parallel combined), which attempt consumes the last budget slot is
// scheduling-dependent; fault decisions themselves stay deterministic.
type fetcher struct {
	results []fetchResult
	ready   []chan struct{}
	wg      sync.WaitGroup
	stop    atomic.Bool
	cancel  context.CancelFunc
}

// startFetch launches one worker per query and returns at once.
func startFetch(ctx context.Context, src queryable, queries []relation.Query, keeps []func(relation.Tuple) bool, parallel int, pol RetryPolicy) *fetcher {
	ctx, cancel := context.WithCancel(ctx)
	f := &fetcher{
		results: make([]fetchResult, len(queries)),
		ready:   make([]chan struct{}, len(queries)),
		cancel:  cancel,
	}
	sem := make(chan struct{}, max(parallel, 1))
	gates := make([]chan struct{}, len(queries)+1)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	close(gates[0])
	var budgetOut, openOut atomic.Bool
	for i, q := range queries {
		f.ready[i] = make(chan struct{})
		var keep func(relation.Tuple) bool
		if i < len(keeps) {
			keep = keeps[i]
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			defer close(f.ready[i])
			var once sync.Once
			open := func() { once.Do(func() { close(gates[i+1]) }) }
			defer open() // skipped/finished queries release the successor too
			// Gate first, semaphore second: a semaphore holder is always
			// executing (never gate-waiting), so the chain cannot deadlock.
			<-gates[i]
			sem <- struct{}{}
			defer func() { <-sem }()
			switch {
			case f.stop.Load():
				f.results[i] = fetchResult{err: ErrEarlyStop}
			case openOut.Load():
				f.results[i] = fetchResult{err: errSkippedOpen}
			case budgetOut.Load():
				f.results[i] = fetchResult{err: errSkippedBudget}
			default:
				f.results[i] = fetchOne(source.WithAdmitSignal(ctx, open), src, q, keep, pol)
				if errors.Is(f.results[i].err, source.ErrQueryBudget) {
					budgetOut.Store(true)
				}
				if errors.Is(f.results[i].err, breaker.ErrOpen) {
					openOut.Store(true)
				}
			}
		}()
	}
	return f
}

// result blocks until query i has resolved (completed, failed, or been
// skipped) and returns its outcome.
func (f *fetcher) result(i int) fetchResult {
	<-f.ready[i]
	return f.results[i]
}

// stopIssuing prevents any not-yet-admitted query from being sent (it will
// resolve with ErrEarlyStop) and cancels the context governing in-flight
// fetches.
func (f *fetcher) stopIssuing() {
	f.stop.Store(true)
	f.cancel()
}

// wait blocks until every query has resolved, then releases the engine's
// context.
func (f *fetcher) wait() {
	f.wg.Wait()
	f.cancel()
}

// fetchAll issues the queries through the engine and waits on every
// result.
func fetchAll(ctx context.Context, src queryable, queries []relation.Query, keeps []func(relation.Tuple) bool, parallel int, pol RetryPolicy) []fetchResult {
	f := startFetch(ctx, src, queries, keeps, parallel, pol)
	f.wait()
	return f.results
}
