package core

import (
	"context"
	"errors"
	"fmt"

	"qpiad/internal/breaker"
	"qpiad/internal/relation"
)

// CorrelatedPlan describes how a query on an unsupported attribute will be
// answered through a correlated source (Definition 4).
type CorrelatedPlan struct {
	// Target is the source lacking the query attribute.
	Target string
	// Correlated is the source whose knowledge and base set drive the
	// rewrites.
	Correlated string
	// Attr is the query attribute the target does not support.
	Attr string
	// Confidence is the backing AFD's confidence on the correlated source.
	Confidence float64
}

// FindCorrelatedSource locates the best correlated source Sc for answering
// a query on attr against target source Sk, per Definition 4: Sc supports
// attr, has an AFD with attr on the right-hand side, and Sk supports the
// AFD's determining set. Among eligible sources the one with the
// highest-confidence AFD wins.
func (m *Mediator) FindCorrelatedSource(target, attr string) (CorrelatedPlan, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	sk, ok := m.sources[target]
	if !ok {
		return CorrelatedPlan{}, false
	}
	best := CorrelatedPlan{Target: target, Attr: attr, Confidence: -1}
	for name, k := range m.knowledge {
		if name == target {
			continue
		}
		sc, ok := m.sources[name]
		if !ok || !sc.Supports(attr) {
			continue
		}
		a, ok := k.AFDs.Best(attr)
		if !ok {
			continue
		}
		// Sk must support every determining attribute.
		supported := true
		for _, d := range a.Determining {
			if !sk.Supports(d) {
				supported = false
				break
			}
		}
		if !supported {
			continue
		}
		if p := k.Predictors[attr]; p == nil || p.UsedFallback {
			continue
		}
		if a.Confidence > best.Confidence {
			best.Correlated = name
			best.Confidence = a.Confidence
		}
	}
	return best, best.Confidence >= 0
}

// QuerySelectCorrelatedCtx retrieves relevant possible answers for q from
// a source that does not support q's constrained attribute, using the base
// set and knowledge of a correlated source (Section 4.3). q must constrain
// exactly one attribute (the unsupported one); remaining predicates, if
// any, must be supported by the target source. Cancelling ctx aborts
// in-flight source attempts and retry backoffs promptly.
//
// Because the target source does not export the constrained attribute at
// all, every retrieved tuple is a possible answer (there is no post-filter
// on a null we cannot see); tuples are ranked by their retrieving query's
// precision as usual.
func (m *Mediator) QuerySelectCorrelatedCtx(ctx context.Context, targetSrc string, q relation.Query) (*ResultSet, error) {
	sk, _, ok := m.lookup(targetSrc)
	if !ok {
		return nil, fmt.Errorf("core: unknown source %q", targetSrc)
	}
	attrs := q.ConstrainedAttrs()
	var unsupported string
	for _, a := range attrs {
		if !sk.Supports(a) {
			if unsupported != "" {
				return nil, fmt.Errorf("core: source %q supports neither %q nor %q", targetSrc, unsupported, a)
			}
			unsupported = a
		}
	}
	if unsupported == "" {
		// Everything is supported; the normal path applies.
		return nil, fmt.Errorf("core: source %q supports all query attributes; use QuerySelectWithCtx", targetSrc)
	}
	plan, ok := m.FindCorrelatedSource(targetSrc, unsupported)
	if !ok {
		return nil, fmt.Errorf("core: no correlated source for %q on %q", unsupported, targetSrc)
	}
	sc, k, ok := m.lookup(plan.Correlated)
	if !ok {
		return nil, fmt.Errorf("core: correlated source %q vanished", plan.Correlated)
	}

	// Step 1 (modified): base set from the correlated source.
	bres := fetchOne(ctx, sc, q, nil, m.cfg.Retry)
	if bres.err != nil {
		return nil, fmt.Errorf("core: correlated base query: %w", bres.err)
	}
	base := bres.rows
	rs := &ResultSet{Query: q, Source: targetSrc}

	// Step 2: rewrites from Sc's knowledge, issued to Sk. Only rewrites
	// targeting the unsupported attribute are usable on Sk.
	cands := m.generateRewrites(k, q, base, sc.Schema())
	usable := cands[:0]
	for _, c := range cands {
		if c.TargetAttr == unsupported {
			usable = append(usable, c)
		}
	}
	rs.Generated = len(usable)
	chosen := scoreAndSelectWith(m.cfg, usable)

	issueQs := make([]relation.Query, len(chosen))
	for i, rq := range chosen {
		issueQs[i] = rq.Query
	}
	results := fetchAll(ctx, sk, issueQs, nil, m.cfg.Parallel, m.cfg.Retry)
	var seen answerKeys
	for i, rq := range chosen {
		rq.Attempts = results[i].attempts
		if err := results[i].err; err != nil {
			rq.Err = err
			rs.Degraded = true
			if errors.Is(err, breaker.ErrOpen) {
				// Never sent: the same saved-tuples accounting as select.
				rs.EstSavedTuples += rq.EstSel
			}
			rs.Issued = append(rs.Issued, rq)
			continue
		}
		rq.Transferred = results[i].transferred
		for _, t := range results[i].rows {
			if !seen.add(t) {
				continue
			}
			rq.Kept++
			rs.Possible = append(rs.Possible, Answer{
				Tuple:       t,
				Confidence:  rq.Precision,
				FromQuery:   rq.Query,
				Explanation: rq.Explanation + fmt.Sprintf(" (learned from correlated source %s)", plan.Correlated),
			})
		}
		rs.Issued = append(rs.Issued, rq)
	}
	return rs, nil
}
