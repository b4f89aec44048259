package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"qpiad/internal/breaker"
	"qpiad/internal/planner"
	"qpiad/internal/relation"
)

// ChainSpec describes an n-way chain join R1 ⋈ R2 ⋈ … ⋈ Rn over
// incomplete autonomous sources — the multi-way generalization the paper's
// footnote 5 claims for its two-way technique. Adjacent relations join on
// one attribute pair each.
type ChainSpec struct {
	// Sources are the n registered source names, in chain order.
	Sources []string
	// Queries are the per-relation selections (may be empty selections).
	Queries []relation.Query
	// JoinAttrs[i] joins Sources[i] (left attr) with Sources[i+1] (right
	// attr); len(JoinAttrs) == n−1.
	JoinAttrs [][2]string
	// Alpha weighs the F-measure for pair ordering at every adjacency.
	Alpha float64
	// K is the query-pair budget per adjacency (as in the two-way case).
	K int
}

// ChainAnswer is one joined chain: a tuple from each source.
type ChainAnswer struct {
	// Tuples holds one tuple per source, in chain order.
	Tuples []relation.Tuple
	// Certain reports that every member is a certain answer joined on
	// non-null values.
	Certain bool
	// Confidence multiplies the member confidences and any join-value
	// prediction probabilities.
	Confidence float64
}

// ChainResult is the outcome of a chain join.
type ChainResult struct {
	Spec ChainSpec
	// Answers are ranked certain-first, then by descending confidence.
	Answers []ChainAnswer
	// PairsPerAdjacency records how many query pairs each adjacency issued,
	// indexed by adjacency (caller order, regardless of plan order).
	PairsPerAdjacency []int
	// Degraded reports that at least one selected component rewrite could
	// not be fetched (after retries), so some chains may be missing.
	Degraded bool
	// EstSavedTuples sums the estimated selectivities of selected rewrites
	// the mediator never fetched: rewrites skipped behind an open circuit
	// (which also degrade the result) and rewrites the planner proved
	// irrelevant because an earlier adjacency produced an empty
	// intermediate (which do not — the empty intermediate is exact).
	EstSavedTuples float64
	// Explain records the executed plan: adjacency order plus estimated vs
	// actual cardinalities per step. Always populated.
	Explain *planner.Explain
}

// QueryJoinChain processes an n-way chain join. Each adjacency is planned
// exactly like a two-way join (Section 4.5): complete queries plus
// rewrites on both sides, pair scoring over join-attribute distributions,
// top-K pair selection. The union of selected component queries per source
// determines what is retrieved; the retrieved answer sets are then chained
// with a hash join per adjacency, predicting missing join values with the
// NBC predictors.
func (m *Mediator) QueryJoinChain(spec ChainSpec) (*ChainResult, error) {
	//lint:allow ctxflow audited root: context-free convenience wrapper over QueryJoinChainCtx
	return m.QueryJoinChainCtx(context.Background(), spec)
}

// QueryJoinChainCtx is QueryJoinChain under a caller-supplied context:
// cancelling ctx aborts in-flight source attempts and retry backoffs.
//
// Execution is planner-aware. Adjacencies are estimated from mined
// statistics, ordered by planner.PlanChain when Config.Planner is enabled
// (caller order otherwise), and executed over a contiguous interval: base
// results are fetched lazily as their adjacency comes up, every adjacency
// is pair-planned before any rewrite is fetched (a source shared by two
// adjacencies retrieves the union of both selections), and per-source
// answer sets materialize only when their adjacency executes. When the
// planner is on and an intermediate result comes up empty, the remaining
// sources' rewrite fetches are skipped — the empty intermediate proves
// they cannot contribute — with their estimated selectivity accounted in
// EstSavedTuples. Both modes produce identical answer sets; confidence
// products are computed in canonical source order so rankings match
// bit-for-bit.
func (m *Mediator) QueryJoinChainCtx(ctx context.Context, spec ChainSpec) (*ChainResult, error) {
	n := len(spec.Sources)
	if n < 2 {
		return nil, fmt.Errorf("core: chain join needs at least 2 sources, got %d", n)
	}
	if len(spec.Queries) != n || len(spec.JoinAttrs) != n-1 {
		return nil, fmt.Errorf("core: chain join needs %d queries and %d join attribute pairs", n, n-1)
	}
	type side struct {
		src         sourceIface
		k           *Knowledge
		base        []relation.Tuple
		baseFetched bool
	}
	sides := make([]side, n)
	for i, name := range spec.Sources {
		src, k, ok := m.lookup(name)
		if !ok {
			return nil, fmt.Errorf("core: unknown source %q", name)
		}
		if k == nil {
			return nil, fmt.Errorf("core: no knowledge for source %q", name)
		}
		sides[i] = side{src: src, k: k}
	}
	// Validate every adjacency before the first source round-trip: a
	// malformed spec must not consume any source budget.
	for a := 0; a < n-1; a++ {
		if !sides[a].src.Schema().Has(spec.JoinAttrs[a][0]) || !sides[a+1].src.Schema().Has(spec.JoinAttrs[a][1]) {
			return nil, fmt.Errorf("core: adjacency %d: join attributes %q/%q not present",
				a, spec.JoinAttrs[a][0], spec.JoinAttrs[a][1])
		}
	}

	// Estimate every adjacency from mined statistics (sample-only reads —
	// no source queries) and pick the execution order.
	adjEst := make([]planner.Adjacency, n-1)
	for a := range adjEst {
		adjEst[a] = planner.Adjacency{
			Left:  sideEstimate(spec.Sources[a], sides[a].k, spec.Queries[a], spec.JoinAttrs[a][0]),
			Right: sideEstimate(spec.Sources[a+1], sides[a+1].k, spec.Queries[a+1], spec.JoinAttrs[a][1]),
		}
	}
	order := make([]int, n-1)
	for i := range order {
		order[i] = i
	}
	if m.cfg.Planner {
		cp := planner.PlanChain(adjEst)
		order = cp.Order
		m.plannerPlans.Add(1)
		if cp.Reordered {
			m.plannerReordered.Add(1)
		}
	}

	res := &ChainResult{Spec: spec, PairsPerAdjacency: make([]int, n-1)}

	fetchBase := func(i int) error {
		if sides[i].baseFetched {
			return nil
		}
		bres := fetchOne(ctx, sides[i].src, spec.Queries[i], nil, m.cfg.Retry)
		if bres.err != nil {
			return fmt.Errorf("core: base query on %q: %w", spec.Sources[i], bres.err)
		}
		sides[i].base = bres.rows
		sides[i].baseFetched = true
		return nil
	}

	// Plan each adjacency as a two-way join, in plan order, fetching base
	// results lazily as their side first appears. All adjacencies are
	// planned before any rewrite fetch: a source shared by two adjacencies
	// retrieves the union of both adjacencies' selections, so its answer
	// set is only known once both have planned.
	selected := make([]map[string]RewrittenQuery, n) // query key -> rewrite
	useComplete := make([]bool, n)
	for i := range selected {
		selected[i] = map[string]RewrittenQuery{}
	}
	for _, a := range order {
		if err := fetchBase(a); err != nil {
			return nil, err
		}
		if err := fetchBase(a + 1); err != nil {
			return nil, err
		}
		lAttr, rAttr := spec.JoinAttrs[a][0], spec.JoinAttrs[a][1]
		lu := m.buildUnits(sides[a].k, spec.Queries[a], sides[a].base, sides[a].src.Schema(), lAttr)
		ru := m.buildUnits(sides[a+1].k, spec.Queries[a+1], sides[a+1].base, sides[a+1].src.Schema(), rAttr)
		pairs := scorePairs(lu, ru, spec.Alpha, spec.K)
		res.PairsPerAdjacency[a] = len(pairs)
		for _, p := range pairs {
			if p.left.complete {
				useComplete[a] = true
			} else {
				selected[a][p.lkey] = p.left.rq
			}
			if p.right.complete {
				useComplete[a+1] = true
			} else {
				selected[a+1][p.rkey] = p.right.rq
			}
		}
	}

	sortedSelected := func(i int) []string {
		keys := make([]string, 0, len(selected[i]))
		for key := range selected[i] {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		return keys
	}

	// Materialize one source's answer set: certain answers when any
	// adjacency selected the complete query, plus post-filtered rewrite
	// results in sorted key order. The rewrites go through the fetch
	// engine, so after the source's circuit rejects one the rest are
	// skipped unissued (errSkippedOpen), as on the select path; both count
	// their estimated selectivity as saved tuples.
	answers := make([][]Answer, n)
	fetched := make([]bool, n)
	skipped := make([]bool, n)
	fetchAnswers := func(i int) {
		if fetched[i] {
			return
		}
		fetched[i] = true
		var seen answerKeys
		if useComplete[i] {
			for _, t := range sides[i].base {
				if seen.add(t) {
					answers[i] = append(answers[i], Answer{Tuple: t, Certain: true, Confidence: 1})
				}
			}
		}
		keys := sortedSelected(i)
		rqs := make([]RewrittenQuery, len(keys))
		queries := make([]relation.Query, len(keys))
		keeps := make([]func(relation.Tuple) bool, len(keys))
		for j, key := range keys {
			rqs[j] = selected[i][key]
			queries[j] = rqs[j].Query
			keeps[j] = postFilter(sides[i].src.Schema(), rqs[j])
		}
		results := fetchAll(ctx, sides[i].src, queries, keeps, m.cfg.Parallel, m.cfg.Retry)
		for j, rq := range rqs {
			if err := results[j].err; err != nil {
				res.Degraded = true
				if errors.Is(err, breaker.ErrOpen) {
					res.EstSavedTuples += rq.EstSel
				}
				continue
			}
			for _, t := range results[j].rows {
				if !seen.add(t) {
					continue
				}
				answers[i] = append(answers[i], Answer{
					Tuple:       t,
					Confidence:  rq.Precision,
					Explanation: rq.Explanation,
				})
			}
		}
	}
	// skipSource accounts a source whose rewrites the planner never
	// fetched because an earlier adjacency proved the chain empty. Not a
	// degradation: the empty intermediate is exact, so the skipped
	// rewrites could not have contributed an answer.
	skipSource := func(i int) {
		if fetched[i] {
			return
		}
		fetched[i] = true
		skipped[i] = true
		for _, key := range sortedSelected(i) {
			res.EstSavedTuples += selected[i][key].EstSel
			m.plannerSkipped.Add(1)
		}
	}

	// Per-source resolved join entries, memoized per (source, attr side).
	// An entry's conf is exactly its prediction factor; factors are
	// multiplied in canonically at materialization, keeping confidences
	// identical across plan orders.
	entL := make([][]joinEntry, n) // answers[i] on JoinAttrs[i][0]   (i < n−1)
	entR := make([][]joinEntry, n) // answers[i] on JoinAttrs[i−1][1] (i > 0)
	resolveSide := func(i int, attr string) []joinEntry {
		s := sides[i].src.Schema()
		return joinEntries(s, answers[i], s.MustIndex(attr), sides[i].k.Predictors[attr])
	}
	// entries returns source i's entries on the attribute that faces
	// source j, an adjacent source.
	entries := func(i, j int) []joinEntry {
		if j > i {
			if entL[i] == nil {
				entL[i] = resolveSide(i, spec.JoinAttrs[i][0])
			}
			return entL[i]
		}
		if entR[i] == nil {
			entR[i] = resolveSide(i, spec.JoinAttrs[i-1][1])
		}
		return entR[i]
	}

	// Partial chains are fixed-length row-index vectors (-1 = source not
	// yet joined) covering the contiguous interval [lo, hi].
	clone := func(p []int, i, row int) []int {
		np := make([]int, n)
		copy(np, p)
		np[i] = row
		return np
	}
	// extend joins the partials, whose member from is at one end of their
	// interval, with source to, the adjacent source beyond that end.
	// buildNew indexes the new source's rows and probes with the partials;
	// otherwise the partials are indexed and the new rows probe.
	extend := func(partials [][]int, from, to int, buildNew bool) [][]int {
		fromEnt, toEnt := entries(from, to), entries(to, from)
		partKey := func(pi int) string { return fromEnt[partials[pi][from]].key }
		var out [][]int
		if buildNew {
			hashJoin(len(toEnt), len(partials), entryKey(toEnt), partKey, func(row, pi int) {
				out = append(out, clone(partials[pi], to, row))
			})
		} else {
			hashJoin(len(partials), len(toEnt), partKey, entryKey(toEnt), func(pi, row int) {
				out = append(out, clone(partials[pi], to, row))
			})
		}
		return out
	}

	act := func(i int) int {
		if !fetched[i] || skipped[i] {
			return -1
		}
		return len(answers[i])
	}

	// Execute the adjacencies in plan order over a growing contiguous
	// interval. Caller order degenerates to the historical left-to-right
	// sweep; a planner order may extend the interval on either end.
	var partials [][]int
	lo := -1
	empty := false
	steps := make([]planner.Step, 0, n-1)
	for step, a := range order {
		st := planner.Step{
			Adjacency:   a,
			LeftSource:  spec.Sources[a],
			RightSource: spec.Sources[a+1],
			EstLeft:     adjEst[a].Left.Est,
			EstRight:    adjEst[a].Right.Est,
			EstOut:      adjEst[a].EstOut(),
			ActLeft:     -1,
			ActRight:    -1,
			ActOut:      -1,
		}
		if empty {
			// A previous step proved the chain empty; the remaining sources
			// cannot contribute, so their rewrite fetches are skipped.
			st.Skipped = true
			if a < lo {
				skipSource(a)
				lo = a
			} else {
				skipSource(a + 1)
			}
			st.ActLeft, st.ActRight = act(a), act(a+1)
			steps = append(steps, st)
			continue
		}
		switch {
		case step == 0:
			first, second := a, a+1
			if m.cfg.Planner && adjEst[a].Right.Est < adjEst[a].Left.Est {
				first, second = a+1, a
			}
			fetchAnswers(first)
			if m.cfg.Planner && len(answers[first]) == 0 {
				empty = true
				skipSource(second)
			} else {
				fetchAnswers(second)
				buildLeft := m.cfg.Planner && planner.BuildLeft(len(answers[a]), len(answers[a+1]))
				st.BuildLeft = buildLeft
				// The first join extends one-member partials of source a.
				blank := make([]int, n)
				for i := range blank {
					blank[i] = -1
				}
				partials = make([][]int, len(answers[a]))
				for j := range partials {
					partials[j] = clone(blank, a, j)
				}
				partials = extend(partials, a, a+1, !buildLeft)
			}
			lo = a
		case a < lo:
			fetchAnswers(a)
			buildNew := !m.cfg.Planner || planner.BuildLeft(len(answers[a]), len(partials))
			st.BuildLeft = buildNew
			partials = extend(partials, a+1, a, buildNew)
			lo = a
		default:
			fetchAnswers(a + 1)
			buildPartials := m.cfg.Planner && planner.BuildLeft(len(partials), len(answers[a+1]))
			st.BuildLeft = buildPartials
			partials = extend(partials, a, a+1, !buildPartials)
		}
		if m.cfg.Planner && len(partials) == 0 {
			empty = true
		}
		st.ActLeft, st.ActRight = act(a), act(a+1)
		st.ActOut = len(partials)
		steps = append(steps, st)
	}

	// Materialize surviving chains with canonical confidence: for each
	// source in chain order, its member confidence, then its right-attr
	// prediction factor (adjacency i−1), then its left-attr factor
	// (adjacency i). The product is identical whatever order the
	// adjacencies executed in.
	chainKeys := make([]string, 0, len(partials))
	var kbuf []byte
	for _, p := range partials {
		tuples := make([]relation.Tuple, n)
		conf := 1.0
		certain := true
		for i := 0; i < n; i++ {
			a := answers[i][p[i]]
			tuples[i] = a.Tuple
			conf *= a.Confidence
			if !a.Certain {
				certain = false
			}
			if i > 0 {
				e := entR[i][p[i]]
				conf *= e.conf
				if e.predded {
					certain = false
				}
			}
			if i < n-1 {
				e := entL[i][p[i]]
				conf *= e.conf
				if e.predded {
					certain = false
				}
			}
		}
		res.Answers = append(res.Answers, ChainAnswer{Tuples: tuples, Certain: certain, Confidence: conf})
		// The tie-break key: each member's tuple key followed by \x1f.
		kbuf = kbuf[:0]
		for _, t := range tuples {
			kbuf = append(t.AppendKey(kbuf), '\x1f')
		}
		chainKeys = append(chainKeys, string(kbuf))
	}
	// Certain first, then descending confidence; ties broken by the chain
	// keys so the ranking is identical whichever order the planner joined
	// in.
	sortByPosition(res.Answers, func(i, j int32) int {
		ai, aj := &res.Answers[i], &res.Answers[j]
		if ai.Certain != aj.Certain {
			return ahead(ai.Certain)
		}
		if ai.Confidence != aj.Confidence {
			return ahead(ai.Confidence > aj.Confidence)
		}
		return strings.Compare(chainKeys[i], chainKeys[j])
	})
	res.Explain = &planner.Explain{PlannerOn: m.cfg.Planner, Order: order, Steps: steps}
	return res, nil
}

// sourceIface is the slice of the source API the chain join uses.
type sourceIface interface {
	queryable
	Schema() *relation.Schema
	Name() string
}
