package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"qpiad/internal/breaker"
	"qpiad/internal/nbc"
	"qpiad/internal/planner"
	"qpiad/internal/relation"
)

// JoinSpec describes a two-way join query over the mediator's global schema
// (Section 4.5): one selection per relation plus an equi-join condition.
type JoinSpec struct {
	// LeftSource / RightSource are registered source names.
	LeftSource, RightSource string
	// LeftQuery / RightQuery are the per-relation selections derived from
	// the user's join query (Q1 and Q2 in the paper).
	LeftQuery, RightQuery relation.Query
	// LeftJoinAttr / RightJoinAttr are the equi-join attributes.
	LeftJoinAttr, RightJoinAttr string
	// Alpha overrides the mediator α for pair ordering (joins typically
	// want more recall weight; the paper evaluates α ∈ {0, 0.5, 2}).
	Alpha float64
	// K is the number of query pairs to issue (10 in the paper's
	// experiments). K <= 0 means unlimited.
	K int
}

// queryUnit is one member of Q1∪Q1′ or Q2∪Q2′ with its ranking statistics.
type queryUnit struct {
	rq       RewrittenQuery // zero-valued Query for the complete query
	complete bool
	query    relation.Query
	prec     float64
	estSel   float64
	// jd is the join-attribute value distribution JD (empirical for the
	// complete query, predicted for rewrites).
	jd nbc.Distribution
}

// QueryPair is a scored pair of queries, one per relation.
type QueryPair struct {
	Left, Right   relation.Query
	LeftComplete  bool
	RightComplete bool
	Precision     float64
	EstSel        float64
	Recall        float64
	F             float64
}

// JoinAnswer is one joined tuple returned to the user.
type JoinAnswer struct {
	Left, Right relation.Tuple
	// JoinValue is the value the pair joined on (predicted when a side was
	// null on its join attribute).
	JoinValue relation.Value
	// Certain reports that both sides were certain answers with non-null
	// join values.
	Certain bool
	// Confidence multiplies the component confidences and, when a missing
	// join value was predicted, the prediction probability.
	Confidence float64
}

// JoinResult is the outcome of a join query.
type JoinResult struct {
	Spec JoinSpec
	// Pairs are the issued query pairs in issue order.
	Pairs []QueryPair
	// Answers are the joined tuples, certain first, then by descending
	// confidence.
	Answers []JoinAnswer
	// Degraded reports that at least one component rewrite could not be
	// fetched (after retries), so some possible join pairs may be missing.
	Degraded bool
	// EstSavedTuples sums the estimated selectivities of component rewrites
	// the mediator never fetched — either because the planner proved the
	// pair empty from the other side, or because the source's circuit was
	// open (mirroring ResultSet.EstSavedTuples).
	EstSavedTuples float64
	// Explain records the plan: estimated vs actual cardinalities and the
	// planner's ordering decisions. Always populated.
	Explain *planner.Explain
}

// sideEstimate derives a planner-side cost estimate for one join side from
// mined statistics: the estimated full-database cardinality of the
// selection, and the sample's distinct-value count on the join attribute
// (the hash-join fanout denominator).
func sideEstimate(name string, k *Knowledge, q relation.Query, attr string) planner.Side {
	sd := planner.Side{Source: name}
	if k.Sample != nil {
		sd.Est = k.EstSelComplete(q)
		if st, ok := k.Sample.IndexStats(attr); ok {
			sd.Distinct = st.Distinct
		}
	}
	return sd
}

// QueryJoin processes a join query per Section 4.5: retrieve both base
// sets, generate rewrites on each side, score all query pairs by combined
// precision and join-aware estimated selectivity, issue the top-K pairs,
// and join their results — predicting missing join values with the NBC
// predictors.
func (m *Mediator) QueryJoin(spec JoinSpec) (*JoinResult, error) {
	//lint:allow ctxflow audited root: context-free convenience wrapper over QueryJoinCtx
	return m.QueryJoinCtx(context.Background(), spec)
}

// QueryJoinCtx is QueryJoin under a caller-supplied context: cancelling ctx
// aborts in-flight source attempts and retry backoffs promptly.
func (m *Mediator) QueryJoinCtx(ctx context.Context, spec JoinSpec) (*JoinResult, error) {
	ls, lk, ok := m.lookup(spec.LeftSource)
	if !ok {
		return nil, fmt.Errorf("core: unknown source %q", spec.LeftSource)
	}
	rsrc, rk, ok := m.lookup(spec.RightSource)
	if !ok {
		return nil, fmt.Errorf("core: unknown source %q", spec.RightSource)
	}
	if lk == nil || rk == nil {
		return nil, fmt.Errorf("core: join requires knowledge for both sources")
	}
	if !ls.Schema().Has(spec.LeftJoinAttr) || !rsrc.Schema().Has(spec.RightJoinAttr) {
		return nil, fmt.Errorf("core: join attributes %q/%q not present", spec.LeftJoinAttr, spec.RightJoinAttr)
	}

	// Estimate both sides from mined statistics before touching the
	// sources. The estimates drive fetch ordering when the planner is on
	// and surface in the Explain either way.
	adj := planner.Adjacency{
		Left:  sideEstimate(spec.LeftSource, lk, spec.LeftQuery, spec.LeftJoinAttr),
		Right: sideEstimate(spec.RightSource, rk, spec.RightQuery, spec.RightJoinAttr),
	}
	if m.cfg.Planner {
		m.plannerPlans.Add(1)
	}

	// Step 1: base sets (retried under the mediator's policy; the join
	// cannot proceed without them). With the planner on, the estimated
	// smaller side goes first so a failing cheap side aborts before the
	// expensive one is queried; answer sets are order-independent.
	var lbase, rbase []relation.Tuple
	fetchBase := func(src queryable, q relation.Query, side string, out *[]relation.Tuple) error {
		bres := fetchOne(ctx, src, q, nil, m.cfg.Retry)
		if bres.err != nil {
			return fmt.Errorf("core: %s base query: %w", side, bres.err)
		}
		*out = bres.rows
		return nil
	}
	if m.cfg.Planner && adj.Right.Est < adj.Left.Est {
		if err := fetchBase(rsrc, spec.RightQuery, "right", &rbase); err != nil {
			return nil, err
		}
		if err := fetchBase(ls, spec.LeftQuery, "left", &lbase); err != nil {
			return nil, err
		}
	} else {
		if err := fetchBase(ls, spec.LeftQuery, "left", &lbase); err != nil {
			return nil, err
		}
		if err := fetchBase(rsrc, spec.RightQuery, "right", &rbase); err != nil {
			return nil, err
		}
	}

	// Step 2: rewrites per side.
	lunits := m.buildUnits(lk, spec.LeftQuery, lbase, ls.Schema(), spec.LeftJoinAttr)
	runits := m.buildUnits(rk, spec.RightQuery, rbase, rsrc.Schema(), spec.RightJoinAttr)

	// Step 3+4: score all pairs, keep top-K.
	pairs := scorePairs(lunits, runits, spec.Alpha, spec.K)

	res := &JoinResult{Spec: spec}

	// Step 5: issue component queries once each. A side's hash index is
	// memoized alongside the fetch: a unit appearing in many scored pairs
	// is indexed once, not once per pair.
	type sideResult struct {
		answers []Answer
		index   map[string][]joinEntry
	}
	leftResults := make(map[string]*sideResult)
	rightResults := make(map[string]*sideResult)
	var actLeft, actRight int
	leftOpen, rightOpen := false, false
	fetch := func(u queryUnit, src interface {
		queryable
		Schema() *relation.Schema
	}, cache map[string]*sideResult, base []relation.Tuple, open *bool, act *int) *sideResult {
		key := u.query.Key()
		if sr, ok := cache[key]; ok {
			return sr
		}
		sr := &sideResult{}
		switch {
		case u.complete:
			for _, t := range base {
				sr.answers = append(sr.answers, Answer{Tuple: t, Certain: true, Confidence: 1, FromQuery: u.query})
			}
		case *open:
			// An earlier component on this side was rejected by the source's
			// open circuit; skip the rest of the side's rewrites unissued and
			// account their selectivity as saved tuples — the same plan-level
			// short-circuit the select path applies (errSkippedOpen).
			res.Degraded = true
			res.EstSavedTuples += u.rq.EstSel
		default:
			fres := fetchOne(ctx, src, u.query, postFilter(src.Schema(), u.rq), m.cfg.Retry)
			if fres.err != nil {
				// A component that stays unfetchable after retries degrades
				// the join rather than failing it.
				res.Degraded = true
				if errors.Is(fres.err, breaker.ErrOpen) {
					res.EstSavedTuples += u.rq.EstSel
					*open = true
				}
			} else {
				for _, t := range fres.rows {
					sr.answers = append(sr.answers, Answer{
						Tuple:       t,
						Confidence:  u.rq.Precision,
						FromQuery:   u.query,
						Explanation: u.rq.Explanation,
					})
				}
			}
		}
		cache[key] = sr
		*act += len(sr.answers)
		return sr
	}
	fetchLeft := func(u queryUnit) *sideResult {
		return fetch(u, ls, leftResults, lbase, &leftOpen, &actLeft)
	}
	fetchRight := func(u queryUnit) *sideResult {
		return fetch(u, rsrc, rightResults, rbase, &rightOpen, &actRight)
	}
	// canSkip reports that not fetching u would actually save a source
	// query: complete units are served from the already-fetched base, and
	// cached units were fetched for an earlier pair.
	canSkip := func(u queryUnit, cache map[string]*sideResult) bool {
		if u.complete {
			return false
		}
		_, cached := cache[u.query.Key()]
		return !cached
	}
	skip := func(u queryUnit) {
		m.plannerSkipped.Add(1)
		res.EstSavedTuples += u.rq.EstSel
	}

	lcol := ls.Schema().MustIndex(spec.LeftJoinAttr)
	rcol := rsrc.Schema().MustIndex(spec.RightJoinAttr)
	lpred := lk.Predictors[spec.LeftJoinAttr]
	rpred := rk.Predictors[spec.RightJoinAttr]
	// seenJoin dedupes joined pairs by the two tuple keys joined with
	// \x1f, appended into jbuf; tieKeys holds each answer's key, in step
	// with res.Answers, for the ranking's tie-break.
	seenJoin := make(map[string]bool)
	var jbuf []byte
	var tieKeys []string
	emit := func(le, re joinEntry) {
		jbuf = le.ans.Tuple.AppendKey(jbuf[:0])
		jbuf = append(jbuf, '\x1f')
		jbuf = re.ans.Tuple.AppendKey(jbuf)
		if seenJoin[string(jbuf)] {
			return
		}
		key := string(jbuf)
		seenJoin[key] = true
		tieKeys = append(tieKeys, key)
		res.Answers = append(res.Answers, JoinAnswer{
			Left:      le.ans.Tuple,
			Right:     re.ans.Tuple,
			JoinValue: le.val,
			// A predicted join value means the stored one was null, so
			// !predded is exactly the old non-null check.
			Certain:    le.ans.Certain && re.ans.Certain && !le.predded && !re.predded,
			Confidence: le.conf * re.conf,
		})
	}

	for _, sp := range pairs {
		lu, ru := sp.left, sp.right
		res.Pairs = append(res.Pairs, sp.pair)
		var lres, rres *sideResult
		if m.cfg.Planner {
			// Fetch the estimated-smaller component first; if it comes back
			// empty the pair cannot match, so the other component's fetch is
			// skipped entirely when that would save a source query.
			if ru.estSel < lu.estSel {
				rres = fetchRight(ru)
				if len(rres.answers) == 0 && canSkip(lu, leftResults) {
					skip(lu)
					continue
				}
				lres = fetchLeft(lu)
			} else {
				lres = fetchLeft(lu)
				if len(lres.answers) == 0 && canSkip(ru, rightResults) {
					skip(ru)
					continue
				}
				rres = fetchRight(ru)
			}
		} else {
			lres = fetchLeft(lu)
			rres = fetchRight(ru)
		}
		if len(lres.answers) == 0 || len(rres.answers) == 0 {
			continue
		}

		// Step 6: hash join with missing-value prediction. The caller-order
		// path builds on the right as always; the planner builds on the
		// side whose materialized answer set is smaller. Either direction
		// produces the same (left, right) match set, and emit computes
		// confidence with fixed left×right orientation, so the answers are
		// identical either way.
		if m.cfg.Planner && planner.BuildLeft(len(lres.answers), len(rres.answers)) {
			if lres.index == nil {
				lres.index = buildJoinIndex(ls.Schema(), lres.answers, lcol, lpred)
			}
			for _, ra := range rres.answers {
				re, ok := resolveJoinValue(rsrc.Schema(), ra, rcol, rpred)
				if !ok {
					continue
				}
				for _, le := range lres.index[re.val.Key()] {
					emit(le, re)
				}
			}
		} else {
			if rres.index == nil {
				rres.index = buildJoinIndex(rsrc.Schema(), rres.answers, rcol, rpred)
			}
			for _, la := range lres.answers {
				le, ok := resolveJoinValue(ls.Schema(), la, lcol, lpred)
				if !ok {
					continue
				}
				for _, re := range rres.index[le.val.Key()] {
					emit(le, re)
				}
			}
		}
	}
	// Certain first, then descending confidence; ties broken by tuple keys
	// so the ranking is identical whichever order the planner joined in.
	sortByPosition(res.Answers, func(i, j int32) int {
		ai, aj := &res.Answers[i], &res.Answers[j]
		if ai.Certain != aj.Certain {
			return ahead(ai.Certain)
		}
		if ai.Confidence != aj.Confidence {
			return ahead(ai.Confidence > aj.Confidence)
		}
		return strings.Compare(tieKeys[i], tieKeys[j])
	})
	res.Explain = &planner.Explain{
		PlannerOn: m.cfg.Planner,
		Order:     []int{0},
		Steps: []planner.Step{{
			LeftSource:  spec.LeftSource,
			RightSource: spec.RightSource,
			EstLeft:     adj.Left.Est,
			EstRight:    adj.Right.Est,
			EstOut:      adj.EstOut(),
			ActLeft:     actLeft,
			ActRight:    actRight,
			ActOut:      len(res.Answers),
			BuildLeft:   m.cfg.Planner && planner.BuildLeft(actLeft, actRight),
		}},
	}
	return res, nil
}

// joinEntry is one answer carried through the mediator's hash join: the
// resolved join value (stored, or NBC-predicted when the stored value was
// null), the confidence after any prediction discount, and whether a
// prediction happened — a predicted entry can never be part of a certain
// join. Shared by the two-way and chain joins.
type joinEntry struct {
	ans     Answer
	val     relation.Value
	conf    float64
	predded bool
}

// resolveJoinValue resolves an answer's join value at column col, predicting
// with pred when the stored value is null. ok=false means the value is null
// and unpredictable, so the answer cannot join at all.
func resolveJoinValue(s *relation.Schema, a Answer, col int, pred *nbc.Predictor) (joinEntry, bool) {
	v := a.Tuple[col]
	if !v.IsNull() {
		return joinEntry{ans: a, val: v, conf: a.Confidence}, true
	}
	if pred == nil {
		return joinEntry{}, false
	}
	guess, p, ok := pred.Predict(s, a.Tuple).Top()
	if !ok {
		return joinEntry{}, false
	}
	return joinEntry{ans: a, val: guess, conf: a.Confidence * p, predded: true}, true
}

// buildJoinIndex hashes answers by resolved join value — the build side of
// the mediator's hash join, in answer order per key.
func buildJoinIndex(s *relation.Schema, answers []Answer, col int, pred *nbc.Predictor) map[string][]joinEntry {
	idx := make(map[string][]joinEntry, len(answers))
	for _, a := range answers {
		e, ok := resolveJoinValue(s, a, col, pred)
		if !ok {
			continue
		}
		idx[e.val.Key()] = append(idx[e.val.Key()], e)
	}
	return idx
}

// buildUnits assembles Q∪Q′ for one side of the join: the complete query
// (precision 1, true selectivity, empirical join distribution) plus every
// rewritten query with its predicted join-attribute distribution (step 3a).
func (m *Mediator) buildUnits(k *Knowledge, q relation.Query, base []relation.Tuple, s *relation.Schema, joinAttr string) []queryUnit {
	units := []queryUnit{{
		complete: true,
		query:    q,
		prec:     1,
		estSel:   float64(len(base)),
		jd:       empiricalDistribution(s, base, joinAttr),
	}}
	pred := k.Predictors[joinAttr]
	for _, rq := range m.generateRewrites(k, q, base, s) {
		u := queryUnit{rq: rq, query: rq.Query, prec: rq.Precision, estSel: rq.EstSel}
		switch {
		case rq.TargetAttr == joinAttr:
			// The rewrite retrieves tuples missing the join attribute; its
			// join distribution is the predictor's posterior given the
			// rewrite evidence.
			if p := k.Predictors[joinAttr]; p != nil {
				u.jd = p.PredictEvidence(rq.Evidence)
			}
		case pred != nil:
			// Join attribute is bound or free in the rewrite: use evidence
			// from the rewrite's equality predicates.
			ev := make(map[string]relation.Value)
			for _, pr := range rq.Query.Preds {
				if pr.Op == relation.OpEq {
					ev[pr.Attr] = pr.Value
				}
			}
			u.jd = pred.PredictEvidence(ev)
		}
		units = append(units, u)
	}
	return units
}

// empiricalDistribution is the normalized join-value histogram of a base
// set (nulls excluded).
func empiricalDistribution(s *relation.Schema, tuples []relation.Tuple, attr string) nbc.Distribution {
	col, ok := s.Index(attr)
	if !ok {
		return nbc.NewDistribution(nil, nil)
	}
	counts := make(map[string]float64)
	var order []relation.Value
	for _, t := range tuples {
		v := t[col]
		if v.IsNull() {
			continue
		}
		if _, seen := counts[v.Key()]; !seen {
			order = append(order, v)
		}
		counts[v.Key()]++
	}
	weights := make([]float64, len(order))
	for i, v := range order {
		weights[i] = counts[v.Key()]
	}
	return nbc.NewDistribution(order, weights)
}

// scoredPair couples a QueryPair with its source units.
type scoredPair struct {
	pair  QueryPair
	left  queryUnit
	right queryUnit
	// key is the ranking tie-break: the left query's key immediately
	// followed by the right one's.
	key string
}

// scorePairs implements steps 3(b), 3(c) and 4: per-value estimated
// selectivities, pair selectivity as the sum of matching-value products,
// pair precision as the product of component precisions, recall normalized
// over all pairs, and F-measure top-K selection.
func scorePairs(lunits, runits []queryUnit, alpha float64, k int) []scoredPair {
	var pairs []scoredPair
	rkeys := make([]string, len(runits))
	for j, ru := range runits {
		rkeys[j] = ru.query.Key()
	}
	var kbuf []byte
	for _, lu := range lunits {
		lkey := lu.query.Key()
		for j, ru := range runits {
			estSel := 0.0
			for i := 0; i < lu.jd.Len(); i++ {
				v := lu.jd.Value(i)
				pr := ru.jd.Prob(v)
				if pr == 0 {
					continue
				}
				// EstSel(qp, vj) = precision × selectivity × P(vj), per side.
				estSel += (lu.prec * lu.estSel * lu.jd.ProbAt(i)) * (ru.prec * ru.estSel * pr)
			}
			kbuf = append(append(kbuf[:0], lkey...), rkeys[j]...)
			pairs = append(pairs, scoredPair{
				pair: QueryPair{
					Left:          lu.query,
					Right:         ru.query,
					LeftComplete:  lu.complete,
					RightComplete: ru.complete,
					Precision:     lu.prec * ru.prec,
					EstSel:        estSel,
				},
				left:  lu,
				right: ru,
				key:   string(kbuf),
			})
		}
	}
	total := 0.0
	for _, p := range pairs {
		total += p.pair.Precision * p.pair.EstSel
	}
	for i := range pairs {
		if total > 0 {
			pairs[i].pair.Recall = pairs[i].pair.Precision * pairs[i].pair.EstSel / total
		}
		pairs[i].pair.F = fMeasure(pairs[i].pair.Precision, pairs[i].pair.Recall, alpha)
	}
	sort.SliceStable(pairs, func(i, j int) bool {
		if pairs[i].pair.F != pairs[j].pair.F {
			return pairs[i].pair.F > pairs[j].pair.F
		}
		if pairs[i].pair.Precision != pairs[j].pair.Precision {
			return pairs[i].pair.Precision > pairs[j].pair.Precision
		}
		return pairs[i].key < pairs[j].key
	})
	if k > 0 && len(pairs) > k {
		pairs = pairs[:k]
	}
	return pairs
}
