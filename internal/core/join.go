package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"qpiad/internal/breaker"
	"qpiad/internal/nbc"
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
	// the mediator never fetched: every selected rewrite when a base set
	// came back empty (the join is then exactly empty, so not Degraded),
	// and those the source's open circuit turned away or skipped
	// (mirroring ResultSet.EstSavedTuples).
	EstSavedTuples float64
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

	// Step 1: base sets, left then right (retried under the mediator's
	// policy; the join cannot proceed without them).
	fetchBase := func(src queryable, q relation.Query, side string) ([]relation.Tuple, error) {
		bres := fetchOne(ctx, src, q, nil, m.cfg.Retry)
		if bres.err != nil {
			return nil, fmt.Errorf("core: %s base query: %w", side, bres.err)
		}
		return bres.rows, nil
	}
	lbase, err := fetchBase(ls, spec.LeftQuery, "left")
	if err != nil {
		return nil, err
	}
	rbase, err := fetchBase(rsrc, spec.RightQuery, "right")
	if err != nil {
		return nil, err
	}

	// Step 2: rewrites per side.
	lunits := m.buildUnits(lk, spec.LeftQuery, lbase, ls.Schema(), spec.LeftJoinAttr)
	runits := m.buildUnits(rk, spec.RightQuery, rbase, rsrc.Schema(), spec.RightJoinAttr)

	// Step 3+4: score all pairs, keep top-K.
	pairs := scorePairs(lunits, runits, spec.Alpha, spec.K)

	res := &JoinResult{Spec: spec}

	// Step 5: fetch each side's distinct selected components once, both
	// sides at once, through the fetch engine; the complete component is
	// answered from the base rows. An empty base has no certain answers
	// and mines no rewrites, so no pair can join: nothing more is sent,
	// and every selected rewrite counts as saved.
	left := &joinSide{src: ls, base: lbase, col: ls.Schema().MustIndex(spec.LeftJoinAttr), pred: lk.Predictors[spec.LeftJoinAttr]}
	right := &joinSide{src: rsrc, base: rbase, col: rsrc.Schema().MustIndex(spec.RightJoinAttr), pred: rk.Predictors[spec.RightJoinAttr]}
	comps := make([][2]*sideResult, len(pairs))
	for i, sp := range pairs {
		res.Pairs = append(res.Pairs, sp.pair)
		comps[i] = [2]*sideResult{left.add(sp.left, sp.lkey), right.add(sp.right, sp.rkey)}
	}
	if len(lbase) == 0 || len(rbase) == 0 {
		for _, sd := range []*joinSide{left, right} {
			for _, u := range sd.rewrites {
				res.EstSavedTuples += u.rq.EstSel
			}
		}
		return res, nil
	}
	lf, rf := left.start(ctx, m.cfg), right.start(ctx, m.cfg)
	left.fold(res, lf)
	right.fold(res, rf)

	// seenJoin dedupes joined pairs by the two tuple keys joined with
	// \x1f, appended into jbuf; tieKeys holds each answer's key, in step
	// with res.Answers, for the ranking's tie-break.
	seenJoin := make(map[string]bool)
	var jbuf []byte
	var tieKeys []string
	for i := range pairs {
		lres, rres := comps[i][0], comps[i][1]
		if len(lres.answers) == 0 || len(rres.answers) == 0 {
			continue
		}
		lents, rents := left.entries(lres), right.entries(rres)
		emit := func(l, r int) {
			la, ra := lres.answers[l], rres.answers[r]
			jbuf = la.Tuple.AppendKey(jbuf[:0])
			jbuf = append(jbuf, '\x1f')
			jbuf = ra.Tuple.AppendKey(jbuf)
			if seenJoin[string(jbuf)] {
				return
			}
			key := string(jbuf)
			seenJoin[key] = true
			tieKeys = append(tieKeys, key)
			le, re := lents[l], rents[r]
			res.Answers = append(res.Answers, JoinAnswer{
				Left:      la.Tuple,
				Right:     ra.Tuple,
				JoinValue: le.val,
				// A predicted join value means the stored one was null, so
				// !predded is exactly the non-null check. Each side's
				// confidence takes its prediction factor before the
				// left×right product.
				Certain:    la.Certain && ra.Certain && !le.predded && !re.predded,
				Confidence: (la.Confidence * le.conf) * (ra.Confidence * re.conf),
			})
		}
		// Step 6: hash join with missing-value prediction, building on the
		// right and probing with the left.
		hashJoin(len(rents), len(lents), entryKey(rents), entryKey(lents), func(r, l int) { emit(l, r) })
	}
	// Certain first, then descending confidence; ties broken by tuple keys.
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
	return res, nil
}

// joinSide is one side of a two-way join: its distinct selected
// components and what fetching them returned.
type joinSide struct {
	src  sourceIface
	base []relation.Tuple
	col  int
	pred *nbc.Predictor
	// byKey finds a component's result by its query key. rewrites and
	// results line up: the selected rewrites, in the order the ranked pairs
	// first select them.
	byKey    map[string]*sideResult
	rewrites []queryUnit
	results  []*sideResult
}

// sideResult is one component's answers and, once a pair joins on them,
// their resolved join entries.
type sideResult struct {
	answers []Answer
	ents    []joinEntry
}

// add selects u, keyed key, and returns its result, which every pair that
// selects the same component shares. The complete component is answered
// from the base rows at once.
func (sd *joinSide) add(u queryUnit, key string) *sideResult {
	if sr, ok := sd.byKey[key]; ok {
		return sr
	}
	if sd.byKey == nil {
		sd.byKey = make(map[string]*sideResult)
	}
	sr := &sideResult{}
	sd.byKey[key] = sr
	if u.complete {
		for _, t := range sd.base {
			sr.answers = append(sr.answers, Answer{Tuple: t, Certain: true, Confidence: 1, FromQuery: u.query})
		}
	} else {
		sd.rewrites = append(sd.rewrites, u)
		sd.results = append(sd.results, sr)
	}
	return sr
}

// start sends the side's rewrites through the fetch engine, under cfg's
// Parallel and Retry.
func (sd *joinSide) start(ctx context.Context, cfg Config) *fetcher {
	queries := make([]relation.Query, len(sd.rewrites))
	keeps := make([]func(relation.Tuple) bool, len(sd.rewrites))
	for i, u := range sd.rewrites {
		queries[i] = u.query
		keeps[i] = postFilter(sd.src.Schema(), u.rq)
	}
	return startFetch(ctx, sd.src, queries, keeps, cfg.Parallel, cfg.Retry)
}

// fold waits for f, which start returned, and files each rewrite's kept
// rows as its answers. A rewrite that stays unfetchable degrades the join
// rather than failing it; one the source's open circuit turned away (or
// that was skipped behind it) counts its estimated selectivity as saved
// tuples.
func (sd *joinSide) fold(res *JoinResult, f *fetcher) {
	f.wait()
	for i, u := range sd.rewrites {
		fres := f.results[i]
		if fres.err != nil {
			res.Degraded = true
			if errors.Is(fres.err, breaker.ErrOpen) {
				res.EstSavedTuples += u.rq.EstSel
			}
			continue
		}
		sr := sd.results[i]
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

// entries resolves sr's join entries on first use.
func (sd *joinSide) entries(sr *sideResult) []joinEntry {
	if sr.ents == nil {
		sr.ents = joinEntries(sd.src.Schema(), sr.answers, sd.col, sd.pred)
	}
	return sr.ents
}

// joinEntry is one answer's side of the mediator's hash join: the resolved
// join value (stored, or NBC-predicted when the stored value was null) and
// its key, the prediction's probability as a confidence factor (1 for a
// stored value), and whether a prediction happened — a predicted entry can
// never be part of a certain join. Shared by the two-way and chain joins.
type joinEntry struct {
	val     relation.Value
	key     string // val.Key(); empty when the answer cannot join
	conf    float64
	predded bool
}

// joinEntries resolves each answer's join value at column col, predicting
// with pred where the stored value is null. The entries line up with
// answers; an answer whose value is null and unpredictable gets an entry
// with an empty key, which joins nothing (every value's key is non-empty).
func joinEntries(s *relation.Schema, answers []Answer, col int, pred *nbc.Predictor) []joinEntry {
	ents := make([]joinEntry, len(answers))
	for i, a := range answers {
		e := joinEntry{val: a.Tuple[col], conf: 1}
		if e.val.IsNull() {
			if pred == nil {
				continue
			}
			guess, p, ok := pred.Predict(s, a.Tuple).Top()
			if !ok {
				continue
			}
			e = joinEntry{val: guess, conf: p, predded: true}
		}
		e.key = e.val.Key()
		ents[i] = e
	}
	return ents
}

// entryKey reads join keys off entries for hashJoin.
func entryKey(ents []joinEntry) func(int) string {
	return func(i int) string { return ents[i].key }
}

// hashJoin is the mediator's one hash join: it indexes the nBuild build
// rows by buildKey, in order, then probes with the nProbe probe rows in
// order, calling emit(b, p) for each probe row's matches in build order.
// A row whose key is empty joins nothing.
func hashJoin(nBuild, nProbe int, buildKey, probeKey func(int) string, emit func(b, p int)) {
	idx := make(map[string][]int)
	for b := 0; b < nBuild; b++ {
		if k := buildKey(b); k != "" {
			idx[k] = append(idx[k], b)
		}
	}
	for p := 0; p < nProbe; p++ {
		if k := probeKey(p); k != "" {
			for _, b := range idx[k] {
				emit(b, p)
			}
		}
	}
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
	// lkey and rkey are the two queries' keys; key, the ranking tie-break,
	// is lkey immediately followed by rkey.
	lkey, rkey, key string
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
				lkey:  lkey,
				rkey:  rkeys[j],
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
