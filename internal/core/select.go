package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"

	"qpiad/internal/breaker"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// QuerySelect runs the full QPIAD selection algorithm (Section 4.2) against
// the named source:
//
//  1. issue Q, return the base result set as certain answers;
//  2. generate rewritten queries from the base set's determining-set value
//     combinations, order them by F-measure, keep the top-K, reorder those
//     by precision, issue them, post-filter, and return the relevant
//     possible answers ranked by their retrieving query's precision.
//
// Tuples with more than one null over the constrained attributes are
// reported in ResultSet.Unranked, after the ranked answers.
func (m *Mediator) QuerySelect(srcName string, q relation.Query) (*ResultSet, error) {
	//lint:allow ctxflow audited root: context-free convenience wrapper over QuerySelectCtx
	return m.QuerySelectCtx(context.Background(), srcName, q)
}

// QuerySelectCtx is QuerySelect under a caller-supplied context: cancelling
// ctx aborts in-flight source attempts and retry backoffs promptly.
func (m *Mediator) QuerySelectCtx(ctx context.Context, srcName string, q relation.Query) (*ResultSet, error) {
	return m.QuerySelectWithCtx(ctx, m.cfg, srcName, q)
}

// QuerySelectWith is QuerySelect under an explicit per-call configuration.
// It never reads or mutates the mediator's shared config, so concurrent
// callers with different α/K/retry settings cannot bleed into each other.
//
// Results are served from the mediator answer cache when possible:
// identical (source, query, α/K/ordering) calls hit the cached ResultSet,
// and concurrent identical misses are collapsed to a single pipeline run.
// Every caller receives its own ResultSet header, but on a hit its answer
// sections and Issued share their arrays with the cached entry, each capped
// at its length: the caller may reslice them, append to them (which
// copies, as long as a shortened section was cut with s[:n:n]) or Project
// the result, and reorders them only through SortBy. It must not write to
// an element in place. Degraded results (a rewrite failed or was
// budget-skipped) are returned but evicted immediately — a later retry gets
// a chance at the complete answer set. cfg.NoCache bypasses the cache for
// this call only.
func (m *Mediator) QuerySelectWith(cfg Config, srcName string, q relation.Query) (*ResultSet, error) {
	//lint:allow ctxflow audited root: context-free convenience wrapper over QuerySelectWithCtx
	return m.QuerySelectWithCtx(context.Background(), cfg, srcName, q)
}

// QuerySelectWithCtx is QuerySelectWith under a caller-supplied context,
// with the same sharing contract for cached answers.
//
// Cache caveat: when concurrent identical misses are collapsed, the whole
// pipeline runs under the *leader's* context. A follower that cancels its
// own ctx still receives the leader's result; if the leader cancels, every
// collapsed caller sees the leader's cancellation error (and the degraded
// entry is evicted, so a retry starts fresh).
func (m *Mediator) QuerySelectWithCtx(ctx context.Context, cfg Config, srcName string, q relation.Query) (*ResultSet, error) {
	if m.cache == nil || cfg.NoCache {
		return m.querySelectUncached(ctx, cfg, srcName, q)
	}
	key := answerKey(srcName, q, cfg)
	v, err := m.cache.Do(key, func() (any, error) {
		return m.querySelectUncached(ctx, cfg, srcName, q)
	})
	if err != nil {
		if rs, ok := m.staleFallback(key, cfg, err); ok {
			return rs, nil
		}
		return nil, err
	}
	rs := v.(*ResultSet)
	if rs.Degraded {
		m.cache.Delete(key)
	}
	return rs.clone(), nil
}

// staleFallback serves the last cached answer for key when the pipeline
// failed because the source's circuit breaker rejected the base query
// (errors.Is(err, breaker.ErrOpen)) and cfg.StaleTTL arms the fallback.
// The returned clone shares the cached entry's answer sections untouched —
// byte-identical to what a fresh hit would have served — and is flagged
// Stale with its age on its own header. The cached master is never mutated
// and the stale serve is never re-cached.
func (m *Mediator) staleFallback(key string, cfg Config, err error) (*ResultSet, bool) {
	if cfg.StaleTTL <= 0 || !errors.Is(err, breaker.ErrOpen) {
		return nil, false
	}
	v, age, ok := m.cache.GetStale(key, cfg.StaleTTL)
	if !ok {
		return nil, false
	}
	rs := v.(*ResultSet).clone()
	rs.Stale = true
	rs.StaleAge = age
	m.staleServed.Add(1)
	return rs, true
}

// answerKey is the cache key for one selection call. The fingerprint covers
// exactly the config fields that change a (non-degraded) result: α, K and
// the ordering policy. Parallel only affects wall-clock time, and Retry can
// only affect degraded results, which are never kept in the cache.
func answerKey(srcName string, q relation.Query, cfg Config) string {
	b := make([]byte, 0, 128)
	b = append(append(b, srcName...), '\x1e')
	b = append(append(b, q.Key()...), '\x1e')
	b = strconv.AppendFloat(b, cfg.Alpha, 'g', -1, 64)
	b = strconv.AppendInt(append(b, '\x1f'), int64(cfg.K), 10)
	b = strconv.AppendInt(append(b, '\x1f'), int64(cfg.Ordering), 10)
	return string(b)
}

// clone gives a cache hit its own header over the cached master's arrays:
// Certain, Possible, Unranked and Issued alias the master, each capped at
// its length, so a caller's append copies instead of writing past the
// master's length, and a trim only reslices. Nothing writes to a master
// after it is cached: the fallback flags only the header, Project and the
// global fan-out build fresh arrays, and SortBy sorts copies. So a hit
// costs one header, whatever the size of the answer.
//
// Aliasing audit: sharing tuples here is safe because no tuple in a
// ResultSet ever aliases a relation's backing store. Every tuple enters the
// pipeline through Source.Fetch, which copies the rows its caller keeps at
// the wire boundary, all of one call's rows into one allocation with each
// tuple capped at its length, so the cache holds — and hands out — tuples
// owned by the mediator alone. Relation.Select's aliasing contract stops at
// the source wall.
func (rs *ResultSet) clone() *ResultSet {
	cp := *rs
	cp.Certain = slices.Clip(rs.Certain)
	cp.Possible = slices.Clip(rs.Possible)
	cp.Unranked = slices.Clip(rs.Unranked)
	cp.Issued = slices.Clip(rs.Issued)
	return &cp
}

// SortBy stably orders each answer section (Certain, Possible, Unranked) by
// cmp over the answers' tuples, negative when a comes first, like ORDER BY.
// Each section is copied before it is sorted: a result served from the
// answer cache shares its sections with the cached entry, so this is the
// way to reorder one.
func (rs *ResultSet) SortBy(cmp func(a, b relation.Tuple) int) {
	for _, sec := range []*[]Answer{&rs.Certain, &rs.Possible, &rs.Unranked} {
		sorted := slices.Clone(*sec)
		slices.SortStableFunc(sorted, func(a, b Answer) int { return cmp(a.Tuple, b.Tuple) })
		*sec = sorted
	}
}

// querySelectUncached runs the full selection pipeline against the source.
func (m *Mediator) querySelectUncached(ctx context.Context, cfg Config, srcName string, q relation.Query) (*ResultSet, error) {
	src, k, base, err := m.fetchBase(ctx, cfg, srcName, q)
	if err != nil {
		return nil, err
	}
	// Batch returns every answer: TopN bounds streams only, and answerKey
	// leaves it out, so a truncated answer must never reach the cache.
	cfg.TopN = 0
	return m.runSelect(ctx, cfg, src, k, q, base, nil).Result, nil
}

// fetchBase resolves the named source and runs Step 1, the base query q,
// retried like any other: its rows are the certain answers. Without mined
// knowledge there is nothing to rewrite with and without the base set
// nothing to rewrite from, so both are errors. An aggregate query's
// attribute is checked against the schema before the source is queried.
func (m *Mediator) fetchBase(ctx context.Context, cfg Config, srcName string, q relation.Query) (*source.Source, *Knowledge, []relation.Tuple, error) {
	src, k, ok := m.lookup(srcName)
	if !ok {
		return nil, nil, nil, fmt.Errorf("core: unknown source %q", srcName)
	}
	if k == nil {
		return nil, nil, nil, fmt.Errorf("core: no knowledge mined for source %q", srcName)
	}
	if a := q.Agg; a != nil && a.Attr != "" && !src.Schema().Has(a.Attr) {
		return nil, nil, nil, fmt.Errorf("core: aggregate attribute %q not in source %q", a.Attr, srcName)
	}
	bres := fetchOne(ctx, src, q, nil, cfg.Retry)
	if bres.err != nil {
		return nil, nil, nil, fmt.Errorf("core: base query: %w", bres.err)
	}
	return src, k, bres.rows, nil
}

// runSelect is the selection pipeline after the base query, shared by batch
// and stream: certain answers from the base set, rewrite generation (Step
// 2a) and top-K selection (2b–c), the chosen rewrites through the fetch
// engine, and the fold in issue order (2d–e), which is descending precision
// and so rank order. emit, when non-nil, receives the certain section as
// one run, each folded rewrite's possible and unranked answers as runs
// ahead of its outcome, and every rewrite's outcome; batch passes nil and
// only folds. cfg.TopN > 0 arms the streaming early stop (see stream.go).
func (m *Mediator) runSelect(ctx context.Context, cfg Config, src *source.Source, k *Knowledge, q relation.Query, base []relation.Tuple, emit func(StreamEvent)) *StreamSummary {
	emitRun := func(run []Answer, unranked bool) {
		if emit != nil && len(run) > 0 {
			emit(StreamEvent{Kind: StreamEventAnswer, Answers: run, Unranked: unranked})
		}
	}

	// Certain answers go out before any rewriting (NBC inference, scoring)
	// happens: time-to-first-answer is one source round-trip.
	rs := &ResultSet{Query: q, Source: src.Name(), Certain: make([]Answer, 0, len(base))}
	for _, t := range base {
		rs.Certain = append(rs.Certain, Answer{
			Tuple:      t,
			Certain:    true,
			Confidence: 1,
			FromQuery:  q,
		})
	}
	emitRun(rs.Certain, false)

	// Step 2(a): generate; 2(b)+(c): order and select.
	cands := m.generateRewrites(k, q, base, src.Schema())
	rs.Generated = len(cands)
	chosen := scoreAndSelectWith(cfg, cands)

	// Step 2(d)+(e): retrieve the extended result set and post-filter.
	constrained := q.ConstrainedAttrs()
	seen := seedAnswerKeys(src.Schema(), base, constrained)
	queries, keeps := issueQueries(src, chosen)
	fetch := startFetch(ctx, src, queries, keeps, cfg.Parallel, cfg.Retry)
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
			rq.Transferred = res.transferred
			rq.Err = ErrEarlyStop
			if res.attempts == 0 {
				sum.SkippedRewrites++
				sum.EstSavedTuples += rq.EstSel
			} else {
				sum.CancelledRewrites++
			}
			rs.Issued = append(rs.Issued, rq)
			if emit != nil {
				emit(StreamEvent{Kind: StreamEventRewrite, Rewrite: &rq})
			}
			continue
		}
		possible, unranked := foldRewriteResult(rs, src.Schema(), constrained, seen, chosen[i], res)
		emitRun(possible, false)
		emitRun(unranked, true)
		if emit != nil {
			done := rs.Issued[len(rs.Issued)-1]
			emit(StreamEvent{Kind: StreamEventRewrite, Rewrite: &done})
		}
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
	return sum
}

// issueQueries materializes the wire form of the chosen rewrites and their
// Step 2(e) post-filters. Step 2(e) is conditional: when the source refuses
// null bindings (the web-form norm), rewrites are issued as-is and the
// post-filter drops the transferred tuples the mediator cannot use; when
// null bindings ARE allowed, the rewrite binds TargetAttr IS NULL so only
// candidate incomplete tuples are transferred — this is what lets QPIAD beat
// AllRanked on transfer cost even on sources where AllRanked is feasible
// (Figure 8).
func issueQueries(src *source.Source, chosen []RewrittenQuery) ([]relation.Query, []func(relation.Tuple) bool) {
	bindNulls := src.Capabilities().AllowNullBinding
	issueQs := make([]relation.Query, len(chosen))
	keeps := make([]func(relation.Tuple) bool, len(chosen))
	for i, rq := range chosen {
		issueQs[i] = rq.Query
		if bindNulls {
			issueQs[i] = issueQs[i].With(relation.IsNull(rq.TargetAttr))
		}
		keeps[i] = postFilter(src.Schema(), rq)
	}
	return issueQs, keeps
}

// postFilter is Step 2(e) for rewrite rq: keep only the tuples null on its
// target attribute, since the others are certain answers or certain
// non-answers. It keeps nothing when schema lacks the target. The fetch
// hands it to the source, which copies out only the tuples it keeps; it is
// the one place that decides which rewrite rows survive.
func postFilter(schema *relation.Schema, rq RewrittenQuery) func(relation.Tuple) bool {
	col, ok := schema.Index(rq.TargetAttr)
	if !ok {
		return func(relation.Tuple) bool { return false }
	}
	return func(t relation.Tuple) bool { return t[col].IsNull() }
}

// foldRewriteResult folds one issued rewrite's fetch outcome into the result
// set — the shared assembly step of the batch and streaming executors. On
// success the rows the source kept (the target-null tuples, Step 2e) are
// deduplicated against everything already answered and appended to
// Possible or Unranked; the answers appended are returned, as the tails of
// those sections capped at their length, so the streaming executor can
// emit exactly them. A later fold appends past the cap, never into a
// returned run. A failed or budget-skipped rewrite degrades the result
// instead of failing it, and is still accounted in Issued so cost analysis
// sees it.
func foldRewriteResult(rs *ResultSet, schema *relation.Schema, constrained []string, seen *answerKeys, rq RewrittenQuery, res fetchResult) (possible, unranked []Answer) {
	rq.Attempts = res.attempts
	if err := res.err; err != nil {
		rq.Err = err
		rs.Degraded = true
		if errors.Is(err, breaker.ErrOpen) {
			// Rewrites rejected or skipped while the circuit was open never
			// touched the source: their selectivity estimate is tuples (and
			// queries) saved, mirroring the streaming early-stop accounting.
			rs.EstSavedTuples += rq.EstSel
		}
		rs.Issued = append(rs.Issued, rq)
		return nil, nil
	}
	rq.Transferred = res.transferred
	p0, u0 := len(rs.Possible), len(rs.Unranked)
	for _, t := range res.rows {
		if !seen.add(t) {
			continue
		}
		rq.Kept++
		ans := Answer{
			Tuple:       t,
			Confidence:  rq.Precision,
			FromQuery:   rq.Query,
			Explanation: rq.Explanation,
		}
		if t.NullCountOn(schema, constrained) > 1 {
			rs.Unranked = append(rs.Unranked, ans)
		} else {
			rs.Possible = append(rs.Possible, ans)
		}
	}
	rs.Issued = append(rs.Issued, rq)
	return slices.Clip(rs.Possible[p0:]), slices.Clip(rs.Unranked[u0:])
}

// answerKeys is the set of answers already returned, by canonical tuple
// key: Step 2(e) drops a fetched tuple that is already an answer. Keys are
// appended into buf, which is reused across tuples, and looked up with
// seen[string(buf)], which does not copy, so only a new answer allocates.
// The zero value is an empty set.
type answerKeys struct {
	seen map[string]struct{}
	buf  []byte
}

// seedAnswerKeys returns the set a rewrite fold starts from: the certain
// answers a rewrite can fetch again. The fold keeps only tuples null on
// their rewrite's target, which is a constrained attribute, and tuples with
// equal keys are null on the same attributes, so a certain answer non-null
// on every constrained attribute never collides with a kept tuple and is
// not keyed. A certain answer satisfies every predicate, so only under an
// IS NULL predicate is anything keyed at all.
func seedAnswerKeys(schema *relation.Schema, base []relation.Tuple, constrained []string) *answerKeys {
	cols := make([]int, 0, len(constrained))
	for _, a := range constrained {
		if c, ok := schema.Index(a); ok {
			cols = append(cols, c)
		}
	}
	seen := &answerKeys{}
	for _, t := range base {
		for _, c := range cols {
			if t[c].IsNull() {
				seen.add(t)
				break
			}
		}
	}
	return seen
}

// add records t and reports whether it was new.
func (ak *answerKeys) add(t relation.Tuple) bool {
	ak.buf = t.AppendKey(ak.buf[:0])
	if _, ok := ak.seen[string(ak.buf)]; ok {
		return false
	}
	if ak.seen == nil {
		ak.seen = make(map[string]struct{})
	}
	ak.seen[string(ak.buf)] = struct{}{}
	return true
}

// AllAnswers returns certain answers followed by ranked possible answers
// and then the unranked tail — the order a user sees.
func (rs *ResultSet) AllAnswers() []Answer {
	out := make([]Answer, 0, len(rs.Certain)+len(rs.Possible)+len(rs.Unranked))
	out = append(out, rs.Certain...)
	out = append(out, rs.Possible...)
	out = append(out, rs.Unranked...)
	return out
}

// Project trims every answer in the result set to the named attributes
// (Section 4's projection footnote: QPIAD projects the full attribute set
// internally and returns the user's subset at the end). The answers'
// metadata (confidence, explanation, retrieving query) and the rest of the
// header (issued rewrites, degraded and stale flags, estimated savings) are
// preserved; the projected schema is returned for display.
func (rs *ResultSet) Project(s *relation.Schema, attrs []string) (*ResultSet, *relation.Schema, error) {
	out := *rs
	var ps *relation.Schema
	project := func(answers []Answer) ([]Answer, error) {
		tuples := make([]relation.Tuple, len(answers))
		for i, a := range answers {
			tuples[i] = a.Tuple
		}
		projected, schema, err := relation.ProjectTuples(s, tuples, attrs)
		if err != nil {
			return nil, err
		}
		ps = schema
		res := make([]Answer, len(answers))
		for i, a := range answers {
			a.Tuple = projected[i]
			res[i] = a
		}
		return res, nil
	}
	var err error
	if out.Certain, err = project(rs.Certain); err != nil {
		return nil, nil, err
	}
	if out.Possible, err = project(rs.Possible); err != nil {
		return nil, nil, err
	}
	if out.Unranked, err = project(rs.Unranked); err != nil {
		return nil, nil, err
	}
	return &out, ps, nil
}
