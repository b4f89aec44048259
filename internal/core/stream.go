package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"qpiad/internal/breaker"
	"qpiad/internal/planner"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// This file implements the streaming selection executor. Batch QuerySelect
// issues all K chosen rewrites behind an all-queries barrier and only then
// assembles the answer list, so the user sees nothing until the slowest
// rewrite returns and always pays for the full top-K fan-out. SelectStream
// instead emits answers as they become available while preserving exactly
// the batch semantics:
//
//   - certain answers are emitted as soon as the base query returns, before
//     any rewriting work starts;
//   - rewrites are issued through the same bounded-parallelism,
//     ordered-admission, retry-governed machinery as the batch path, but
//     their results are folded and emitted strictly in issue (descending
//     estimated precision) order — which is also rank order, so the client
//     receives the answer list incrementally in its final order;
//   - a final summary event carries the reassembled ResultSet with the
//     usual Issued/Generated/Degraded accounting.
//
// Confidence-bound early termination (Config.TopN): possible answers
// inherit their retrieving query's estimated precision as their confidence,
// and rewrites are issued in descending precision order. Therefore once N
// possible answers have been emitted, every answer any unissued rewrite
// could contribute has confidence at most the precision of the last emitted
// rewrite — it would rank at or below everything already delivered, and the
// emitted prefix IS the top-N. The bound is admissible: stopping cannot
// change the top-N possible answers. When it trips, unissued rewrites are
// skipped (queries saved), in-flight ones are cancelled through their
// context, and the summary records what was saved.
//
// The executor sits on the lazy relational pipeline end to end: each
// rewrite's rows come from Source.QueryCtx, which streams Relation.Scan
// through its result cap and clones at the yield, so early termination here
// composes with early termination there — a cancelled or skipped rewrite
// stops pulling, and nothing upstream materializes (see the ownership rules
// in internal/relation/seq.go and DESIGN.md).

// StreamEventKind enumerates the streaming executor's event types.
type StreamEventKind uint8

const (
	// StreamAnswer carries one answer: Answer.Certain distinguishes certain
	// answers from possible ones, Unranked marks the multi-null tail.
	StreamEventAnswer StreamEventKind = iota
	// StreamRewrite reports one chosen rewrite's final outcome — succeeded
	// (with transfer accounting), failed after retries, budget-skipped, or
	// skipped/cancelled by the top-N bound.
	StreamEventRewrite
	// StreamSummary is the final event before the channel closes.
	StreamEventSummary
)

// String names the event kind.
func (k StreamEventKind) String() string {
	switch k {
	case StreamEventAnswer:
		return "answer"
	case StreamEventRewrite:
		return "rewrite"
	case StreamEventSummary:
		return "summary"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// StreamEvent is one message on a SelectStream channel. Exactly one of
// Answer, Rewrite and Summary is non-nil, per Kind.
type StreamEvent struct {
	Kind StreamEventKind
	// Answer is set on StreamAnswer events. Answers arrive in final rank
	// order: all certain answers first, then possible answers in descending
	// retrieving-query precision.
	Answer *Answer
	// Unranked marks an answer belonging to the unranked multi-null tail
	// rather than the ranked possible section.
	Unranked bool
	// Stale marks an answer replayed from the answer cache by the
	// stale-cache fallback (the source's circuit breaker was open). The
	// final summary's Result.Stale is set accordingly.
	Stale bool
	// Rewrite is set on StreamRewrite events.
	Rewrite *RewrittenQuery
	// Summary is set on the single StreamSummary event that ends a healthy
	// stream (it is omitted only when the caller's context is cancelled).
	Summary *StreamSummary
}

// StreamSummary closes a stream with the batch-equivalent result set and
// the early-termination savings accounting.
type StreamSummary struct {
	// Result is the fully reassembled result set. With Config.TopN == 0 it
	// is identical to what batch QuerySelect would have returned for the
	// same query (pinned by TestSelectStreamEquivalence).
	Result *ResultSet
	// EarlyStopped reports that the top-N confidence bound tripped.
	EarlyStopped bool
	// SkippedRewrites counts chosen rewrites never sent to the source
	// because the bound was already met — source queries saved outright.
	SkippedRewrites int
	// CancelledRewrites counts rewrites that were already in flight when
	// the bound tripped: their queries were issued (and are accounted in
	// the source metrics) but their results were discarded.
	CancelledRewrites int
	// EstSavedTuples estimates the tuples not transferred thanks to the
	// skipped rewrites (the sum of their selectivity estimates).
	EstSavedTuples float64
}

// ErrEarlyStop marks a chosen rewrite that was skipped or cancelled because
// the top-N confidence bound was met before its result was needed. Unlike
// every other RewrittenQuery.Err it does NOT degrade the result set: the
// emitted top-N is provably unaffected.
var ErrEarlyStop = errors.New("core: rewrite not needed: top-N confidence bound met")

// SelectStream is the streaming form of QuerySelect under the mediator's
// configuration. See SelectStreamWith.
func (m *Mediator) SelectStream(ctx context.Context, srcName string, q relation.Query) (<-chan StreamEvent, error) {
	return m.SelectStreamWith(ctx, m.cfg, srcName, q)
}

// SelectStreamWith runs the QPIAD selection pipeline and streams its output:
// certain answers as soon as the base query returns, possible answers
// incrementally in rank order as each rewrite completes, one StreamRewrite
// event per chosen rewrite, and a final StreamSummary, after which the
// channel is closed. The base query runs synchronously — without it there is
// nothing to stream — so base-query failure is reported as an error here
// rather than on the channel.
//
// cfg.TopN > 0 arms confidence-bound early termination (see the package
// comment above). Cancelling ctx aborts the stream: in-flight source queries
// are cancelled and the channel closes without a summary.
//
// The streaming path never consults the mediator answer cache for fresh
// answers: it exists to cut time-to-first-answer and source traffic on new
// queries; repeated identical queries are the batch path's territory. The
// one exception is the stale-cache fallback: when the source's circuit
// breaker rejects the base query and cfg.StaleTTL arms the fallback, the
// last cached answer within the staleness bound is replayed as a stream —
// every answer event flagged Stale — instead of failing.
func (m *Mediator) SelectStreamWith(ctx context.Context, cfg Config, srcName string, q relation.Query) (<-chan StreamEvent, error) {
	src, k, ok := m.lookup(srcName)
	if !ok {
		return nil, fmt.Errorf("core: unknown source %q", srcName)
	}
	if k == nil {
		return nil, fmt.Errorf("core: no knowledge mined for source %q", srcName)
	}
	bres := fetchOne(ctx, src, q, cfg.Retry)
	if bres.err != nil {
		err := fmt.Errorf("core: base query: %w", bres.err)
		if m.cache != nil && !cfg.NoCache {
			if rs, ok := m.staleFallback(answerKey(srcName, q, cfg), cfg, err); ok {
				events := make(chan StreamEvent)
				go streamStale(ctx, rs, events)
				return events, nil
			}
		}
		return nil, err
	}
	events := make(chan StreamEvent)
	go m.streamRun(ctx, cfg, src, k, q, bres.rows, events)
	return events, nil
}

// streamStale replays a stale cached result as a stream: answers in their
// cached rank order, each flagged Stale, then the summary carrying the
// stale-marked result set. No rewrite events are emitted — nothing was
// issued to the source.
func streamStale(ctx context.Context, rs *ResultSet, events chan<- StreamEvent) {
	defer close(events)
	emit := func(ev StreamEvent) bool {
		select {
		case events <- ev:
			return true
		case <-ctx.Done():
			return false
		}
	}
	emitAnswers := func(answers []Answer, unranked bool) bool {
		for _, a := range answers {
			a := a
			if !emit(StreamEvent{Kind: StreamEventAnswer, Answer: &a, Unranked: unranked, Stale: true}) {
				return false
			}
		}
		return true
	}
	if !emitAnswers(rs.Certain, false) ||
		!emitAnswers(rs.Possible, false) ||
		!emitAnswers(rs.Unranked, true) {
		return
	}
	emit(StreamEvent{Kind: StreamEventSummary, Summary: &StreamSummary{Result: rs}})
}

// streamRun is the streaming executor body: emit certain answers, generate
// and select rewrites, issue them through the streaming fetcher, fold and
// emit results in rank order, then summarize.
func (m *Mediator) streamRun(ctx context.Context, cfg Config, src *source.Source, k *Knowledge, q relation.Query, base []relation.Tuple, events chan<- StreamEvent) {
	defer close(events)
	live := true
	emit := func(ev StreamEvent) {
		if !live {
			return
		}
		select {
		case events <- ev:
		case <-ctx.Done():
			live = false
		}
	}
	emitAnswer := func(a Answer, unranked bool) {
		emit(StreamEvent{Kind: StreamEventAnswer, Answer: &a, Unranked: unranked})
	}

	// Certain answers stream out before any rewriting (NBC inference,
	// scoring) happens: time-to-first-answer is one source round-trip.
	rs := &ResultSet{Query: q, Source: src.Name()}
	for _, t := range base {
		rs.Certain = append(rs.Certain, Answer{
			Tuple:      t,
			Certain:    true,
			Confidence: 1,
			FromQuery:  q,
		})
	}
	for _, a := range rs.Certain {
		emitAnswer(a, false)
	}

	cands := m.generateRewrites(k, q, base, src.Schema())
	rs.Generated = len(cands)
	chosen := scoreAndSelectWith(cfg, cands)

	constrained := q.ConstrainedAttrs()
	seen := seedAnswerKeys(src.Schema(), base, constrained)

	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fetch := startStreamFetch(fctx, cancel, src, issueQueries(src, chosen), cfg.Parallel, cfg.Retry,
		cfg.Planner.Sched(), rewritePriorities(chosen))
	sum := &StreamSummary{Result: rs}
	for i := range chosen {
		res := fetch.result(i)
		if sum.EarlyStopped {
			// The bound tripped at an earlier rewrite: account this one as
			// saved (never issued) or cancelled (already in flight), emit
			// its outcome, and fold nothing — folding completed stragglers
			// would make the answer set depend on cancellation timing.
			rq := chosen[i]
			rq.Attempts = res.attempts
			rq.Transferred = len(res.rows)
			rq.Err = ErrEarlyStop
			if res.attempts == 0 {
				sum.SkippedRewrites++
				sum.EstSavedTuples += rq.EstSel
			} else {
				sum.CancelledRewrites++
			}
			rs.Issued = append(rs.Issued, rq)
			emit(StreamEvent{Kind: StreamEventRewrite, Rewrite: &rq})
			continue
		}
		possible, unranked := foldRewriteResult(rs, src.Schema(), constrained, seen, chosen[i], res)
		for _, a := range possible {
			emitAnswer(a, false)
		}
		for _, a := range unranked {
			emitAnswer(a, true)
		}
		done := rs.Issued[len(rs.Issued)-1]
		emit(StreamEvent{Kind: StreamEventRewrite, Rewrite: &done})
		// The admissible bound: rewrites are processed in descending
		// estimated precision, so once TopN possible answers are out, no
		// later rewrite can place an answer above them. The stop decision
		// depends only on fold order, never on completion timing, so the
		// emitted answer set is deterministic.
		if cfg.TopN > 0 && len(rs.Possible) >= cfg.TopN && i < len(chosen)-1 {
			sum.EarlyStopped = true
			fetch.stopIssuing()
		}
	}
	fetch.wait()
	emit(StreamEvent{Kind: StreamEventSummary, Summary: sum})
}

// streamFetch issues queries through the same bounded-parallelism,
// ordered-admission, budget-aware machinery as the batch fetchAll, but
// delivers each positional result as soon as it is available instead of
// behind an all-queries barrier, and supports stopping admission mid-run.
type streamFetch struct {
	results []fetchResult
	ready   []chan struct{}
	wg      sync.WaitGroup
	stop    atomic.Bool
	cancel  context.CancelFunc
}

// startStreamFetch launches the fetch workers. ctx governs every source
// call; cancel is invoked by stopIssuing to abort in-flight fetches. The
// admission-order guarantees match fetchAll: queries consume source budget
// in index order even while executing concurrently. sched/pris mirror
// fetchAllSched: each fetch holds a cross-query scheduler slot (admitted by
// priority against concurrent plans) for its duration; nil sched disables
// that. Early-stop composes cleanly — a cancelled slot wait resolves like a
// cancelled fetch, and skipped rewrites never touch the scheduler.
func startStreamFetch(ctx context.Context, cancel context.CancelFunc, src queryable, queries []relation.Query, parallel int, pol RetryPolicy, sched *planner.Scheduler, pris []float64) *streamFetch {
	pri := func(i int) float64 {
		if i < len(pris) {
			return pris[i]
		}
		return 0
	}
	f := &streamFetch{
		results: make([]fetchResult, len(queries)),
		ready:   make([]chan struct{}, len(queries)),
		cancel:  cancel,
	}
	for i := range f.ready {
		f.ready[i] = make(chan struct{})
	}
	if parallel <= 1 || len(queries) <= 1 {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			budgetOut, openOut := false, false
			for i, q := range queries {
				switch {
				case f.stop.Load():
					f.results[i] = fetchResult{err: ErrEarlyStop}
				case openOut:
					f.results[i] = fetchResult{err: errSkippedOpen}
				case budgetOut:
					f.results[i] = fetchResult{err: errSkippedBudget}
				default:
					f.results[i] = fetchOneSched(ctx, src, q, pol, sched, pri(i))
					if errors.Is(f.results[i].err, source.ErrQueryBudget) {
						budgetOut = true
					}
					if errors.Is(f.results[i].err, breaker.ErrOpen) {
						openOut = true
					}
				}
				close(f.ready[i])
			}
		}()
		return f
	}

	sem := make(chan struct{}, parallel)
	// gates[i] opens when query i-1 has been admitted or has finished;
	// gates[0] is open from the start (same chain as fetchAll).
	gates := make([]chan struct{}, len(queries)+1)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	close(gates[0])
	var budgetOut, openOut atomic.Bool
	for i, q := range queries {
		f.wg.Add(1)
		go func(i int, q relation.Query) {
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
			if f.stop.Load() {
				f.results[i] = fetchResult{err: ErrEarlyStop}
				return
			}
			if openOut.Load() {
				f.results[i] = fetchResult{err: errSkippedOpen}
				return
			}
			if budgetOut.Load() {
				f.results[i] = fetchResult{err: errSkippedBudget}
				return
			}
			qctx := source.WithAdmitSignal(ctx, open)
			f.results[i] = fetchOneSched(qctx, src, q, pol, sched, pri(i))
			if errors.Is(f.results[i].err, source.ErrQueryBudget) {
				budgetOut.Store(true)
			}
			if errors.Is(f.results[i].err, breaker.ErrOpen) {
				openOut.Store(true)
			}
		}(i, q)
	}
	return f
}

// result blocks until query i has resolved (completed, failed, or been
// skipped) and returns its outcome.
func (f *streamFetch) result(i int) fetchResult {
	<-f.ready[i]
	return f.results[i]
}

// stopIssuing prevents any not-yet-admitted query from being sent (it will
// resolve with ErrEarlyStop) and cancels the context governing in-flight
// fetches.
func (f *streamFetch) stopIssuing() {
	f.stop.Store(true)
	f.cancel()
}

// wait blocks until every worker has resolved.
func (f *streamFetch) wait() {
	f.wg.Wait()
}
