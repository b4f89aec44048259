package core

import (
	"slices"
	"strings"

	"qpiad/internal/nbc"
	"qpiad/internal/relation"
)

// RewrittenQuery is one candidate rewrite with its ranking statistics.
type RewrittenQuery struct {
	// Query is the rewritten query (no predicate on TargetAttr).
	Query relation.Query
	// TargetAttr is the constrained attribute whose nulls the rewrite
	// retrieves (Am in the paper).
	TargetAttr string
	// TargetPred is the original predicate on TargetAttr that retrieved
	// tuples should probably satisfy.
	TargetPred relation.Predicate
	// Evidence is the determining-set value combination (from the base
	// set) the rewrite was generated from.
	Evidence map[string]relation.Value
	// Precision is P(TargetAttr satisfies TargetPred | Evidence).
	Precision float64
	// ModeSatisfiesPred reports whether the single most likely predicted
	// value satisfies TargetPred — the aggregate inclusion test of
	// Section 4.4 ("only for those queries in which the most likely value
	// is equal to the value of the constrained query attribute").
	ModeSatisfiesPred bool
	// EstSel is the estimated number of relevant incomplete tuples.
	EstSel float64
	// Recall is the expected throughput normalized over all candidates.
	Recall float64
	// F is the F-measure score used for top-K selection.
	F float64
	// Explanation cites the AFD behind the rewrite.
	Explanation string
	// Transferred and Kept are filled in after issuing: tuples returned by
	// the source, and tuples surviving post-filtering and deduplication.
	// The efficiency evaluation (Figure 8) reads Transferred.
	Transferred int
	Kept        int
	// Attempts is the number of times the rewrite was actually sent to the
	// source (retries included); 0 when it was skipped unissued on budget
	// exhaustion.
	Attempts int
	// Err records why the rewrite ultimately failed (after retries) or was
	// skipped. nil for successful rewrites. A non-nil Err marks the
	// enclosing result set Degraded.
	Err error
}

// fMeasure computes the weighted harmonic mean (1+α)PR/(αP+R).
func fMeasure(p, r, alpha float64) float64 {
	den := alpha*p + r
	if den <= 0 {
		return 0
	}
	return (1 + alpha) * p * r / den
}

// PredicateMass returns the probability mass a distribution assigns to
// values satisfying pred — for equality predicates this is P(Am = vm); for
// range predicates the mass over the range. Baselines reuse it to rank
// tuples retrieved by null binding.
func PredicateMass(d nbc.Distribution, pred relation.Predicate) float64 {
	total := 0.0
	for i := 0; i < d.Len(); i++ {
		if pred.Holds(d.Value(i)) {
			total += d.ProbAt(i)
		}
	}
	return total
}

// GenerateRewrites is the exported form of QPIAD's Step 2(a), used by
// ablation experiments and introspection tooling: produce the candidate
// rewrites for q given mined knowledge and a base result set. No ordering
// or selection is applied.
func GenerateRewrites(k *Knowledge, q relation.Query, base []relation.Tuple, baseSchema *relation.Schema) []RewrittenQuery {
	var m Mediator
	return m.generateRewrites(k, q, base, baseSchema)
}

// generateRewrites implements Step 2(a) of the QPIAD algorithm for every
// constrained attribute of q (the multi-attribute extension of Section
// 4.2): for each distinct determining-set combination in the base set,
// emit a rewrite that drops the predicate on the target attribute and adds
// equality predicates on the unconstrained determining attributes.
//
// Combinations that differ only on attributes q constrains give the same
// rewrite, so each target's rewrites (its family) come from one pass that
// keeps the first base row of each distinct unconstrained combination. A
// family's rewrites have no predicate on their target, while q and every
// other family's rewrites keep q's predicates on it, so no rewrite repeats
// q or another family's (DESIGN.md "One pass per rewrite family").
//
// k supplies the AFDs, predictors and sample counts; baseSchema is
// the schema the base tuples are in (usually the source's local schema).
func (m *Mediator) generateRewrites(k *Knowledge, q relation.Query, base []relation.Tuple, baseSchema *relation.Schema) []RewrittenQuery {
	var out []RewrittenQuery
	for _, target := range q.ConstrainedAttrs() {
		pred, ok := q.PredOn(target)
		if !ok {
			continue
		}
		p := k.Predictors[target]
		if p == nil || p.UsedFallback {
			// No confident AFD for this attribute: its dtrSet would be the
			// whole schema and rewrites would be over-specific. Skip.
			continue
		}
		out = appendFamily(out, k, p, q, pred, base, baseSchema)
	}
	return out
}

// appendFamily appends the rewrites for target pred.Attr to out: one per
// distinct combination of the unconstrained determining values among the
// base rows non-null on every determining attribute, in order of first
// appearance, each from the first row that shows it. Values are the same
// when their canonical keys are.
func appendFamily(out []RewrittenQuery, k *Knowledge, p *nbc.Predictor, q relation.Query, pred relation.Predicate, base []relation.Tuple, s *relation.Schema) []RewrittenQuery {
	target, dtr := pred.Attr, p.AFD.Determining
	cols := make([]int, len(dtr))
	var free []int // positions in dtr of the attributes q leaves unconstrained
	for i, ax := range dtr {
		c, ok := s.Index(ax)
		if !ok {
			// A narrower base schema (a correlated source's) without a
			// determining attribute offers no combinations.
			return out
		}
		cols[i] = c
		if _, constrained := q.PredOn(ax); !constrained {
			free = append(free, i)
		}
	}
	// Everything that does not depend on the combination is built once per
	// family: the explanation, the rewrite skeleton (q minus the target
	// predicate) and which classes satisfy pred.
	baseRq := q.WithoutAttr(target)
	baseRq.Agg = nil
	if len(baseRq.Preds)+len(free) == 0 {
		return out // the rewrite would have no predicate at all
	}
	explain := p.Explain()
	classes := p.Classes()
	mask := make([]bool, len(classes))
	for i, c := range classes {
		mask[i] = pred.Holds(c)
	}

	// kept holds the base row of each combination kept so far; head maps a
	// combination's hash to the last kept one with that hash, and next
	// chains back to the earlier ones.
	var kept []relation.Tuple
	var next []int
	head := make(map[uint64]int)
	var pkbuf []byte
rows:
	for _, t := range base {
		for _, c := range cols {
			if t[c].IsNull() {
				continue rows
			}
		}
		h := uint64(0)
		for _, i := range free {
			h = t[cols[i]].KeyHash(h)
		}
		prev, ok := head[h]
		if !ok {
			prev = -1
		}
	chain:
		for j := prev; j >= 0; j = next[j] {
			for _, i := range free {
				if !kept[j][cols[i]].KeyEqual(t[cols[i]]) {
					continue chain
				}
			}
			continue rows
		}
		head[h] = len(kept)
		kept = append(kept, t)
		next = append(next, prev)

		preds := make([]relation.Predicate, len(baseRq.Preds), len(baseRq.Preds)+len(free))
		copy(preds, baseRq.Preds)
		evidence := make(map[string]relation.Value, len(dtr))
		pkbuf = append(pkbuf[:0], target...)
		for i, ax := range dtr {
			v := t[cols[i]]
			evidence[ax] = v
			pkbuf = v.AppendKey(append(pkbuf, '\x1f'))
		}
		for _, i := range free {
			preds = append(preds, relation.Eq(dtr[i], t[cols[i]]))
		}
		rq := baseRq
		rq.Preds = preds
		precision, modeHolds := maskedMass(k.predictEvidence(p, string(pkbuf), evidence), mask)
		out = append(out, RewrittenQuery{
			Query:             rq,
			TargetAttr:        target,
			TargetPred:        pred,
			Evidence:          evidence,
			Precision:         precision,
			ModeSatisfiesPred: modeHolds,
			EstSel:            k.EstSel(rq),
			Explanation:       explain,
		})
	}
	return out
}

// maskedMass returns the probability d assigns to the classes mask marks,
// added in class order as PredicateMass adds them, and whether d's most
// likely class (Top's: the first with the highest probability) is marked.
// d lines up position for position with the class list mask was built
// over (see nbc.Distribution).
func maskedMass(d nbc.Distribution, mask []bool) (mass float64, modeMarked bool) {
	best := -1
	for i := 0; i < d.Len(); i++ {
		pi := d.ProbAt(i)
		if mask[i] {
			mass += pi
		}
		if best < 0 || pi > d.ProbAt(best) {
			best = i
		}
	}
	return mass, best >= 0 && mask[best]
}

// scoreAndSelectWith implements Steps 2(b) and 2(c) under cfg: compute
// normalized recall and F-measure over the candidate set, keep the top-K
// by the configured ordering, then reorder the survivors by descending
// precision (so retrieved tuples inherit their query's precision as their
// final rank).
func scoreAndSelectWith(cfg Config, cands []RewrittenQuery) []RewrittenQuery {
	return ScoreAndSelect(cands, cfg.Alpha, cfg.K, cfg.Ordering)
}

// ScoreAndSelect is the exported form of QPIAD's Steps 2(b) and 2(c), used
// directly by ablation experiments: score the candidates (normalized recall
// and F-measure), select the top-k under the given ordering policy, then
// reorder the selection by descending precision. k <= 0 keeps everything.
func ScoreAndSelect(cands []RewrittenQuery, alpha float64, k int, ord Ordering) []RewrittenQuery {
	totalThroughput := 0.0
	for _, c := range cands {
		totalThroughput += c.Precision * c.EstSel
	}
	for i := range cands {
		if totalThroughput > 0 {
			cands[i].Recall = cands[i].Precision * cands[i].EstSel / totalThroughput
		}
		cands[i].F = fMeasure(cands[i].Precision, cands[i].Recall, alpha)
	}
	// Every ordering ends in the query-key tie-break, so equal-F (and
	// equal-precision) rewrites sort identically across runs and under the
	// parallel mining/caching paths. Each candidate is keyed once, outside
	// the O(n log n) comparator.
	keys := make([]string, len(cands))
	for i := range cands {
		keys[i] = cands[i].Query.Key()
	}
	// Both sorts order positions into cands, which stays put until the
	// final permutation moves each candidate once.
	order := positions(len(cands))
	slices.SortStableFunc(order, func(i, j int32) int {
		ci, cj := &cands[i], &cands[j]
		switch ord {
		case OrderSelectivity:
			if ci.EstSel != cj.EstSel {
				return ahead(ci.EstSel > cj.EstSel)
			}
		case OrderArbitrary:
			return strings.Compare(keys[i], keys[j])
		default:
			if ci.F != cj.F {
				return ahead(ci.F > cj.F)
			}
		}
		if ci.Precision != cj.Precision {
			return ahead(ci.Precision > cj.Precision)
		}
		return strings.Compare(keys[i], keys[j])
	})
	n := len(cands)
	if k > 0 && n > k {
		n = k
	}
	// Step 2(c): reorder the chosen top-K by precision. Under the
	// arbitrary-ordering ablation the issue order is left as selected, so
	// the ablation measures what ordering is worth.
	if ord != OrderArbitrary {
		slices.SortStableFunc(order[:n], func(i, j int32) int {
			if cands[i].Precision != cands[j].Precision {
				return ahead(cands[i].Precision > cands[j].Precision)
			}
			return strings.Compare(keys[i], keys[j])
		})
	}
	permute(cands, order)
	return cands[:n]
}

// ahead is a sort comparison's result when exactly one of its operands
// goes first: -1 when it is the first operand, 1 when it is the second.
func ahead(first bool) int {
	if first {
		return -1
	}
	return 1
}

// positions returns 0, 1, ..., n-1: the identity permutation a sort of
// positions starts from.
func positions(n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	return order
}

// permute moves items[order[i]] to position i for every i, each item once,
// by following the permutation's cycles. It overwrites order.
func permute[T any](items []T, order []int32) {
	for i := range order {
		if int(order[i]) == i {
			continue
		}
		first := items[i]
		j := i
		for {
			from := int(order[j])
			order[j] = int32(j)
			if from == i {
				items[j] = first
				break
			}
			items[j] = items[from]
			j = from
		}
	}
}

// sortByPosition stably sorts items by cmp, which compares two items by
// their positions in the unsorted slice, so side data such as precomputed
// tie-break keys stays indexed by those positions. It sorts a permutation
// of positions and then moves each item once, rather than swapping whole
// items inside the sort.
func sortByPosition[T any](items []T, cmp func(i, j int32) int) {
	order := positions(len(items))
	slices.SortStableFunc(order, cmp)
	permute(items, order)
}
