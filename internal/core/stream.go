package core

import (
	"context"
	"errors"
	"fmt"

	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// This file implements the streaming form of selection. Batch
// QuerySelectWithCtx returns the answer list once every chosen rewrite has
// been folded; SelectStreamWith runs the same pipeline (runSelect) and
// emits the answers in runs as they are folded:
//
//   - the certain answers are emitted as one run as soon as the base query
//     returns, before any rewriting work starts;
//   - rewrites are issued through the fetch engine (fetcher), and their
//     results are folded and emitted strictly in issue (descending
//     estimated precision) order — which is also rank order, so the client
//     receives the answer list incrementally in its final order. Each
//     folded rewrite emits at most one run of possible answers and one run
//     of unranked answers, then its rewrite event;
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
// rewrite's rows come from Source.Fetch, which streams Relation.Scan
// through its result cap and the rewrite's Step 2(e) post-filter and copies
// out only the tuples the filter keeps, so early termination here composes
// with early termination there — a cancelled or skipped rewrite stops
// pulling, and nothing upstream materializes (see the ownership rules in
// internal/relation/seq.go and DESIGN.md).

// StreamEventKind enumerates the streaming executor's event types.
type StreamEventKind uint8

const (
	// StreamEventAnswer carries a run of answers of one kind: all certain,
	// or all possible from one rewrite, or all unranked from one rewrite
	// (Unranked set).
	StreamEventAnswer StreamEventKind = iota
	// StreamRewrite reports one chosen rewrite's final outcome — succeeded
	// (with transfer accounting), failed after retries, budget-skipped, or
	// skipped/cancelled by the top-N bound.
	StreamEventRewrite
	// StreamSummary is the final event before the channel closes.
	StreamEventSummary
	// StreamEventPanic ends a stream whose pipeline panicked, in place of
	// the summary. Its Panic holds the panic value; the consumer re-raises
	// it on its own goroutine (panic(ev.Panic)).
	StreamEventPanic
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
	case StreamEventPanic:
		return "panic"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// StreamEvent is one message on a SelectStreamWith channel. Exactly one of
// Answers, Rewrite, Summary and Panic is non-nil, per Kind.
type StreamEvent struct {
	Kind StreamEventKind
	// Answers is the run a StreamEventAnswer event carries. A run is never
	// empty and holds one kind of answer: the whole certain section, or one
	// rewrite's possible answers, or one rewrite's unranked answers. Runs
	// arrive in final rank order — certain answers first, then each
	// rewrite's runs in descending retrieving-query precision, possible
	// before unranked, ahead of that rewrite's StreamEventRewrite event.
	// The slice aliases the result set the summary carries, capped at its
	// length: a consumer may read and keep it but must not write to an
	// element, as with an answer-cache hit.
	Answers []Answer
	// Unranked marks a run from the unranked multi-null tail rather than
	// the ranked possible section.
	Unranked bool
	// Stale marks a run replayed from the answer cache by the stale-cache
	// fallback (the source's circuit breaker was open). The final
	// summary's Result.Stale is set accordingly.
	Stale bool
	// Rewrite is set on StreamRewrite events.
	Rewrite *RewrittenQuery
	// Summary is set on the single StreamSummary event that ends a healthy
	// stream (it is omitted when the caller's context is cancelled or the
	// pipeline panicked).
	Summary *StreamSummary
	// Panic is set on a StreamEventPanic event.
	Panic any
}

// StreamSummary closes a stream with the batch-equivalent result set and
// the early-termination savings accounting.
type StreamSummary struct {
	// Result is the fully reassembled result set. With Config.TopN == 0 it
	// is identical to what batch QuerySelectWithCtx would have returned for the
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

// SelectStreamWith runs the QPIAD selection pipeline and streams its output:
// the certain answers as one run as soon as the base query returns, each
// folded rewrite's possible and unranked answers as runs in rank order, one
// StreamEventRewrite event per chosen rewrite, and a final StreamSummary,
// after which the channel is closed. The base query runs synchronously —
// without it there is nothing to stream — so base-query failure is reported
// as an error here rather than on the channel.
//
// cfg.TopN > 0 arms confidence-bound early termination (see the package
// comment above). Cancelling ctx aborts the stream: in-flight source queries
// are cancelled and the channel closes without a summary. A panic in the
// pipeline ends the stream with a StreamEventPanic instead of the summary.
//
// The streaming path never consults the mediator answer cache for fresh
// answers: it exists to cut time-to-first-answer and source traffic on new
// queries; repeated identical queries are the batch path's territory. The
// one exception is the stale-cache fallback: when the source's circuit
// breaker rejects the base query and cfg.StaleTTL arms the fallback, the
// last cached answer within the staleness bound is replayed as a stream —
// every run flagged Stale — instead of failing.
func (m *Mediator) SelectStreamWith(ctx context.Context, cfg Config, srcName string, q relation.Query) (<-chan StreamEvent, error) {
	src, k, base, err := m.fetchBase(ctx, cfg, srcName, q)
	if err != nil {
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
	go m.streamRun(ctx, cfg, src, k, q, base, events)
	return events, nil
}

// streamStale replays a stale cached result as a stream: one run per
// non-empty section in rank order, each flagged Stale, then the summary
// carrying the stale-marked result set. No rewrite events are emitted —
// nothing was issued to the source.
func streamStale(ctx context.Context, rs *ResultSet, events chan<- StreamEvent) {
	defer close(events)
	defer handOverPanic(ctx, events)
	emit := func(ev StreamEvent) bool {
		select {
		case events <- ev:
			return true
		case <-ctx.Done():
			return false
		}
	}
	for _, run := range []StreamEvent{
		{Answers: rs.Certain},
		{Answers: rs.Possible},
		{Answers: rs.Unranked, Unranked: true},
	} {
		if len(run.Answers) == 0 {
			continue
		}
		run.Kind, run.Stale = StreamEventAnswer, true
		if !emit(run) {
			return
		}
	}
	emit(StreamEvent{Kind: StreamEventSummary, Summary: &StreamSummary{Result: rs}})
}

// streamRun adapts the selection runner to the channel: every event
// runSelect emits is sent in order, then the summary, then the channel is
// closed. Once ctx is cancelled nothing more is sent.
func (m *Mediator) streamRun(ctx context.Context, cfg Config, src *source.Source, k *Knowledge, q relation.Query, base []relation.Tuple, events chan<- StreamEvent) {
	defer close(events)
	defer handOverPanic(ctx, events)
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
	sum := m.runSelect(ctx, cfg, src, k, q, base, emit)
	emit(StreamEvent{Kind: StreamEventSummary, Summary: sum})
}

// handOverPanic, deferred on a stream's goroutine, hands a panic there to
// the consumer, which re-raises it on its own goroutine; the panic ends the
// stream in place of the summary. A consumer that has gone (ctx done) gets
// nothing.
func handOverPanic(ctx context.Context, events chan<- StreamEvent) {
	if p := recover(); p != nil {
		select {
		case events <- StreamEvent{Kind: StreamEventPanic, Panic: p}:
		case <-ctx.Done():
		}
	}
}
