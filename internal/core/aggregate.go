package core

import (
	"context"
	"fmt"

	"qpiad/internal/relation"
)

// InclusionRule selects how a rewritten query's aggregate contribution is
// combined with the certain aggregate (Section 4.4).
type InclusionRule uint8

const (
	// RuleArgmax includes a rewritten query's entire aggregate iff the most
	// likely predicted value of the constrained attribute equals (satisfies)
	// the original predicate — the paper's choice.
	RuleArgmax InclusionRule = iota
	// RuleFractional includes precision × aggregate for every rewritten
	// query — the footnote-4 alternative the paper reports as less
	// accurate; kept as an ablation.
	RuleFractional
)

// String names the rule.
func (r InclusionRule) String() string {
	switch r {
	case RuleArgmax:
		return "argmax"
	case RuleFractional:
		return "fractional"
	default:
		return fmt.Sprintf("rule(%d)", uint8(r))
	}
}

// AggOptions tunes aggregate processing.
type AggOptions struct {
	// IncludePossible adds contributions from rewritten queries (incomplete
	// tuples). False reproduces the "no prediction" baseline that ignores
	// incomplete tuples.
	IncludePossible bool
	// PredictMissing substitutes predicted values when the aggregated
	// attribute itself is null in a contributing tuple (both in the certain
	// and the possible sets). Without it such tuples are skipped, as in
	// plain SQL.
	PredictMissing bool
	// Rule selects the combination rule for possible contributions.
	Rule InclusionRule
}

// AggAnswer is the outcome of an aggregate query over an incomplete source.
type AggAnswer struct {
	// Certain is the aggregate over the certain answers only.
	Certain float64
	// Possible is the contribution from incomplete tuples retrieved by
	// rewritten queries.
	Possible float64
	// Total is the combined aggregate reported to the user.
	Total float64
	// CertainRows / PossibleRows count the contributing tuples.
	CertainRows  int
	PossibleRows int
	// Included are the rewritten queries whose results were combined.
	Included []RewrittenQuery
	// Failed are rewritten queries that were selected for inclusion but
	// contributed nothing: the fetch failed after retries, was skipped
	// unissued (budget exhausted or circuit open), or the aggregate over
	// the fetched tuples failed. Each carries its Err and Attempts.
	Failed []RewrittenQuery
	// Degraded reports that Failed is non-empty: the possible contribution
	// may miss what a fully reliable source would have yielded.
	Degraded bool
}

// QueryAggregateWithCtx processes an aggregate query (q.Agg != nil) per
// Section 4.4 under the per-call configuration cfg: compute the aggregate
// over the certain answers, then — when IncludePossible — generate
// rewritten queries and fold in the aggregate of each rewrite whose
// predicted most-likely value satisfies the original predicate
// (RuleArgmax) or a precision-weighted fraction (RuleFractional). The
// mediator's own config is never read, so concurrent callers with
// different α/K settings cannot interfere. Cancelling ctx aborts in-flight
// source attempts and retry backoffs.
func (m *Mediator) QueryAggregateWithCtx(ctx context.Context, cfg Config, srcName string, q relation.Query, opts AggOptions) (*AggAnswer, error) {
	if q.Agg == nil {
		return nil, fmt.Errorf("core: QueryAggregate needs an aggregate query")
	}
	src, k, base, err := m.fetchBase(ctx, cfg, srcName, q)
	if err != nil {
		return nil, err
	}
	agg := *q.Agg
	out := &AggAnswer{}
	certain, rows, err := m.aggregateOver(src.Schema(), k, agg, base, opts.PredictMissing)
	if err != nil {
		return nil, err
	}
	out.Certain = certain
	out.CertainRows = rows

	if opts.IncludePossible {
		// Only the chosen rewrites the inclusion rule admits are issued;
		// their contributions fold in issue (descending precision) order.
		var included []RewrittenQuery
		for _, rq := range scoreAndSelectWith(cfg, m.generateRewrites(k, q, base, src.Schema())) {
			if include, _ := m.shouldInclude(rq, opts.Rule); include {
				included = append(included, rq)
			}
		}
		queries, keeps := issueQueries(src, included)
		results := fetchAll(ctx, src, queries, keeps, cfg.Parallel, cfg.Retry)
		seen := seedAnswerKeys(src.Schema(), base, q.ConstrainedAttrs())
		fail := func(rq RewrittenQuery, err error) {
			rq.Err = err
			out.Failed = append(out.Failed, rq)
			out.Degraded = true
		}
		for i, rq := range included {
			rq.Attempts = results[i].attempts
			rq.Transferred = results[i].transferred
			if err := results[i].err; err != nil {
				fail(rq, err)
				continue
			}
			var contrib []relation.Tuple
			for _, t := range results[i].rows {
				if seen.add(t) {
					contrib = append(contrib, t)
				}
			}
			if len(contrib) == 0 {
				continue
			}
			val, n, err := m.aggregateOver(src.Schema(), k, agg, contrib, opts.PredictMissing)
			if err != nil {
				fail(rq, err)
				continue
			}
			rq.Kept = len(contrib)
			_, weight := m.shouldInclude(rq, opts.Rule)
			out.Possible += weight * val
			out.PossibleRows += n
			out.Included = append(out.Included, rq)
		}
	}
	out.Total = out.Certain + out.Possible
	return out, nil
}

// shouldInclude applies the inclusion rule to one rewritten query.
func (m *Mediator) shouldInclude(rq RewrittenQuery, rule InclusionRule) (bool, float64) {
	switch rule {
	case RuleFractional:
		return rq.Precision > 0, rq.Precision
	default: // RuleArgmax
		return rq.ModeSatisfiesPred, 1
	}
}

// aggregateOver evaluates agg over tuples, optionally predicting values
// null on the aggregated attribute (argmax completion) instead of skipping
// them. Completion is a Map stage in the fold pipeline, so no completed
// copy of the tuple set is ever materialized — each incomplete tuple is
// cloned, patched, folded and dropped.
func (m *Mediator) aggregateOver(s *relation.Schema, k *Knowledge, agg relation.Aggregate, tuples []relation.Tuple, predictMissing bool) (float64, int, error) {
	seq := relation.FromTuples(tuples)
	if predictMissing && agg.Attr != "" {
		col, ok := s.Index(agg.Attr)
		if !ok {
			return 0, 0, fmt.Errorf("core: aggregate attribute %q missing", agg.Attr)
		}
		if p := k.Predictors[agg.Attr]; p != nil {
			seq = seq.Map(func(t relation.Tuple) relation.Tuple {
				if !t[col].IsNull() {
					return t
				}
				guess, _, ok := p.Predict(s, t).Top()
				if !ok {
					return t
				}
				ct := t.Clone()
				ct[col] = guess
				return ct
			})
		}
	}
	res, err := agg.Fold(s, seq)
	if err != nil {
		return 0, 0, err
	}
	return res.Value, res.Rows, nil
}
