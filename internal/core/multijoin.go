package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"qpiad/internal/breaker"
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
	// indexed by adjacency.
	PairsPerAdjacency []int
	// Degraded reports that at least one selected component rewrite could
	// not be fetched (after retries), so some chains may be missing.
	Degraded bool
	// EstSavedTuples sums the estimated selectivities of selected rewrites
	// the mediator never fetched: every one when a base set came back
	// empty (the chain is then exactly empty, so not Degraded), and those
	// the source's open circuit turned away or skipped (which degrade the
	// result).
	EstSavedTuples float64
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
// Execution needs no statistics. The base queries go out one source after
// another in chain order, and every adjacency is pair-scored on the base
// rows. A source whose base set is empty has no certain answers and mines
// no rewrites, so the chain is exactly empty: nothing more is sent, and
// every selected rewrite counts as saved. Otherwise every source's
// selected rewrites go through the fetch engine at once (a source shared
// by two adjacencies retrieves the union of both selections), and the
// answer sets are hash-joined left to right. Confidence products are
// computed in source order.
func (m *Mediator) QueryJoinChainCtx(ctx context.Context, spec ChainSpec) (*ChainResult, error) {
	n := len(spec.Sources)
	if n < 2 {
		return nil, fmt.Errorf("core: chain join needs at least 2 sources, got %d", n)
	}
	if len(spec.Queries) != n || len(spec.JoinAttrs) != n-1 {
		return nil, fmt.Errorf("core: chain join needs %d queries and %d join attribute pairs", n, n-1)
	}
	type side struct {
		src  sourceIface
		k    *Knowledge
		base []relation.Tuple
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

	res := &ChainResult{Spec: spec, PairsPerAdjacency: make([]int, n-1)}

	// The base queries, in chain order; a failed one fails the chain before
	// any later source is contacted.
	empty := false
	for i := range sides {
		bres := fetchOne(ctx, sides[i].src, spec.Queries[i], nil, m.cfg.Retry)
		if bres.err != nil {
			return nil, fmt.Errorf("core: base query on %q: %w", spec.Sources[i], bres.err)
		}
		sides[i].base = bres.rows
		empty = empty || len(bres.rows) == 0
	}

	// Plan each adjacency as a two-way join. selected[i] maps a query key
	// to the rewrite of source i that some adjacency selected.
	selected := make([]map[string]RewrittenQuery, n)
	useComplete := make([]bool, n)
	for i := range selected {
		selected[i] = map[string]RewrittenQuery{}
	}
	for a := 0; a < n-1; a++ {
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

	// Each source's selected rewrites, in sorted key order.
	rqs := make([][]RewrittenQuery, n)
	for i := range selected {
		keys := make([]string, 0, len(selected[i]))
		for key := range selected[i] {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			rqs[i] = append(rqs[i], selected[i][key])
		}
	}
	if empty {
		for i := range rqs {
			for _, rq := range rqs[i] {
				res.EstSavedTuples += rq.EstSel
			}
		}
		return res, nil
	}

	// Start every source's rewrites at once, then materialize each
	// source's answer set in chain order: certain answers when an
	// adjacency selected the complete query, then the post-filtered
	// rewrite results. After the source's circuit rejects one rewrite the
	// rest are skipped unissued (errSkippedOpen), as on the select path;
	// both count their estimated selectivity as saved tuples.
	fetchers := make([]*fetcher, n)
	for i := range sides {
		queries := make([]relation.Query, len(rqs[i]))
		keeps := make([]func(relation.Tuple) bool, len(rqs[i]))
		for j, rq := range rqs[i] {
			queries[j] = rq.Query
			keeps[j] = postFilter(sides[i].src.Schema(), rq)
		}
		fetchers[i] = startFetch(ctx, sides[i].src, queries, keeps, m.cfg.Parallel, m.cfg.Retry)
	}
	answers := make([][]Answer, n)
	for i := range sides {
		fetchers[i].wait()
		var seen answerKeys
		if useComplete[i] {
			for _, t := range sides[i].base {
				if seen.add(t) {
					answers[i] = append(answers[i], Answer{Tuple: t, Certain: true, Confidence: 1})
				}
			}
		}
		for j, rq := range rqs[i] {
			fres := fetchers[i].results[j]
			if fres.err != nil {
				res.Degraded = true
				if errors.Is(fres.err, breaker.ErrOpen) {
					res.EstSavedTuples += rq.EstSel
				}
				continue
			}
			for _, t := range fres.rows {
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

	// Hash-join left to right. entL[i] holds source i's join entries on
	// JoinAttrs[i][0] (it faces source i+1), entR[i] those on
	// JoinAttrs[i-1][1] (it faces source i-1). A partial chain lists one
	// answer row per source joined so far; each step builds on the new
	// source's entries and probes with the partials.
	entL := make([][]joinEntry, n)
	entR := make([][]joinEntry, n)
	resolve := func(i int, attr string) []joinEntry {
		s := sides[i].src.Schema()
		return joinEntries(s, answers[i], s.MustIndex(attr), sides[i].k.Predictors[attr])
	}
	partials := make([][]int, len(answers[0]))
	for j := range partials {
		partials[j] = []int{j}
	}
	for a := 0; a < n-1 && len(partials) > 0; a++ {
		entL[a] = resolve(a, spec.JoinAttrs[a][0])
		entR[a+1] = resolve(a+1, spec.JoinAttrs[a][1])
		from, to := entL[a], entR[a+1]
		var next [][]int
		hashJoin(len(to), len(partials), entryKey(to), func(pi int) string { return from[partials[pi][a]].key },
			func(row, pi int) { next = append(next, append(append(make([]int, 0, a+2), partials[pi]...), row)) })
		partials = next
	}
	// Materialize surviving chains. Confidence multiplies, for each source
	// in chain order, its member confidence, then its right-attr prediction
	// factor (adjacency i−1), then its left-attr factor (adjacency i).
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
	// keys.
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
	return res, nil
}

// sourceIface is the slice of the source API the joins use.
type sourceIface interface {
	queryable
	Schema() *relation.Schema
}
