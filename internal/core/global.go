package core

import (
	"context"
	"fmt"
	"sort"

	"qpiad/internal/relation"
)

// GlobalResult is the outcome of a global-schema query fanned out across
// every registered source.
type GlobalResult struct {
	// Query is the original user query.
	Query relation.Query
	// Certain are the certain answers from all sources, tagged with their
	// origin, in source order.
	Certain []Answer
	// Possible are the possible answers from all sources, merged and
	// sorted by descending confidence.
	Possible []Answer
	// Unranked is the multi-null tail across sources.
	Unranked []Answer
	// PerSource records each source's individual result (including
	// failures, as nil entries alongside Errors).
	PerSource map[string]*ResultSet
	// Errors records sources that could not serve the query at all
	// (e.g. no knowledge and no correlated plan).
	Errors map[string]error
	// Degraded reports that at least one per-source result was degraded or
	// a source failed entirely — the merged answer set may be incomplete.
	Degraded bool
}

// QuerySelectGlobalCtx runs a selection query on the mediator's global
// schema against every registered source: sources that support all
// constrained attributes and have mined knowledge are queried directly
// (Section 4.2); sources lacking a constrained attribute are queried
// through correlated knowledge (Section 4.3). Possible answers are merged
// across sources by descending confidence. At least one source must
// succeed, otherwise an error summarizing the per-source failures is
// returned; when ctx is done by then, that error wraps ctx.Err(). ctx is
// threaded into every per-source selection, so cancelling it stops the
// fan-out promptly.
func (m *Mediator) QuerySelectGlobalCtx(ctx context.Context, q relation.Query) (*GlobalResult, error) {
	out := &GlobalResult{
		Query:     q,
		PerSource: make(map[string]*ResultSet),
		Errors:    make(map[string]error),
	}
	names := m.SourceNames()
	for _, name := range names {
		src, k, ok := m.lookup(name)
		if !ok {
			continue
		}
		supportsAll := true
		for _, attr := range q.ConstrainedAttrs() {
			if !src.Supports(attr) {
				supportsAll = false
				break
			}
		}
		var (
			rs  *ResultSet
			err error
		)
		if supportsAll && k != nil {
			rs, err = m.QuerySelectWithCtx(ctx, m.cfg, name, q)
		} else if !supportsAll {
			rs, err = m.QuerySelectCorrelatedCtx(ctx, name, q)
		} else {
			err = fmt.Errorf("core: source %q has no mined knowledge", name)
		}
		if err != nil {
			out.Errors[name] = err
			out.Degraded = true
			continue
		}
		out.PerSource[name] = rs
		if rs.Degraded {
			out.Degraded = true
		}
		tag := func(answers []Answer) []Answer {
			tagged := make([]Answer, len(answers))
			for i, a := range answers {
				a.Source = name
				tagged[i] = a
			}
			return tagged
		}
		out.Certain = append(out.Certain, tag(rs.Certain)...)
		out.Possible = append(out.Possible, tag(rs.Possible)...)
		out.Unranked = append(out.Unranked, tag(rs.Unranked)...)
	}
	if len(out.PerSource) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: no source answered %s: %w", q, err)
		}
		return nil, fmt.Errorf("core: no source could answer %s (%d failures)", q, len(out.Errors))
	}
	sort.SliceStable(out.Possible, func(i, j int) bool {
		return out.Possible[i].Confidence > out.Possible[j].Confidence
	})
	return out, nil
}
