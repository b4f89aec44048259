// Package planner is QPIAD's statistics-driven ordering layer. The paper's
// whole cost model is "minimize source queries while maximizing ranked
// recall" (Section 5.4 mines EstSel for exactly this), yet a mediator that
// executes join adjacencies in the order the user wrote them pays for every
// component rewrite even when an early adjacency already proved the chain
// empty. This package turns the mined statistics — selectivity estimates
// from the sample (core.Knowledge.EstSelComplete) and index cardinalities
// from the same sample (relation.IndexStats) — into cheap join-ordering
// decisions.
// PlanChain greedily orders chain-join adjacencies so the smallest estimated
// intermediate result drives each hash join, growing a contiguous interval
// from the cheapest adjacency outward (greedy from cheap cardinality
// signals, in the spirit of "When Greedy Beats Optimal": planning cost is
// O(n log n) table lookups, not a plan-space search), and BuildLeft picks
// the hash-join build side. Reordering never changes the answer set — an
// equi-join chain is associative and commutative over which adjacency is
// materialized first — it changes only how early an empty intermediate can
// short-circuit the remaining component fetches.
//
// The mediator switches the planner on with core.Config.Planner; off, joins
// and chains run in caller order, which is the reference the planner
// equivalence tests compare against.
//
// Everything here is deterministic: estimates are pure functions of the
// mined sample, ties break on adjacency index, and no map is ever ranged.
// The package is in the nodeterm analyzer's scope to keep it that way.
package planner

// Side is one relation's contribution to a join adjacency, summarized by
// the mined statistics the cost model runs on.
type Side struct {
	// Source names the relation (for Explain output).
	Source string
	// Est is the estimated answer-set cardinality of the side's selection —
	// EstSelComplete on the sample, scaled to the full database.
	Est float64
	// Distinct is the number of distinct non-null join-attribute values in
	// the sample (relation.Stats.Distinct). Zero when unknown.
	Distinct int
}

// Adjacency is one equi-join edge of a chain, with per-side statistics on
// its join attributes.
type Adjacency struct {
	Left, Right Side
}

// EstOut estimates the adjacency's join output cardinality with the
// classical distinct-value bound:
//
//	|L ⋈ R| ≈ |L| × |R| / max(V(L, a), V(R, b))
//
// Distinct counts come from the shared sample, so both sides' V are on the
// same scale. Unknown distinct counts degrade to 1 (the cross-product
// bound), which only makes the planner more conservative.
func (a Adjacency) EstOut() float64 {
	d := a.Left.Distinct
	if a.Right.Distinct > d {
		d = a.Right.Distinct
	}
	if d < 1 {
		d = 1
	}
	return a.Left.Est * a.Right.Est / float64(d)
}

// ChainPlan is PlanChain's output: an execution order over adjacencies.
type ChainPlan struct {
	// Order lists adjacency indices in execution order. Every prefix is a
	// contiguous interval of the chain — the invariant that lets the
	// executor keep a single partial result and extend it left or right.
	Order []int
	// EstIntermediate[i] is the estimated partial-chain cardinality after
	// executing Order[:i+1].
	EstIntermediate []float64
	// Reordered reports whether Order differs from caller order (0..n-1).
	Reordered bool
}

// PlanChain greedily orders the adjacencies of a chain join: start at the
// adjacency with the smallest estimated output, then repeatedly extend the
// covered interval to whichever neighbor yields the smaller estimated next
// intermediate. Ties prefer the lower adjacency index (deterministic and
// closest to caller order). The greedy invariant: at every step the
// executor holds one contiguous partial chain, and the step chosen is the
// locally cheapest way to grow it — an empty or tiny intermediate is
// reached as early as the statistics can see it, which is exactly when
// skipping the remaining component fetches saves the most source queries.
func PlanChain(adj []Adjacency) ChainPlan {
	n := len(adj)
	plan := ChainPlan{Order: make([]int, 0, n), EstIntermediate: make([]float64, 0, n)}
	if n == 0 {
		return plan
	}
	best := 0
	for i := 1; i < n; i++ {
		if adj[i].EstOut() < adj[best].EstOut() {
			best = i
		}
	}
	lo, hi := best, best
	inter := adj[best].EstOut()
	plan.Order = append(plan.Order, best)
	plan.EstIntermediate = append(plan.EstIntermediate, inter)
	for len(plan.Order) < n {
		// Extending right with adjacency hi+1 joins the partial's right end
		// (adjacency hi+1's Left side) against a new relation; the expected
		// fan-out per partial tuple is EstOut/|left side|. Symmetrically for
		// extending left. A missing neighbor costs +Inf, i.e. is never taken.
		const inf = 1e308
		nextL, nextR := inf, inf
		if lo > 0 {
			nextL = inter * fanout(adj[lo-1], false)
		}
		if hi < n-1 {
			nextR = inter * fanout(adj[hi+1], true)
		}
		// Ties go left: adjacency lo-1 has the lower index.
		if nextL <= nextR {
			lo--
			plan.Order = append(plan.Order, lo)
			inter = nextL
		} else {
			hi++
			plan.Order = append(plan.Order, hi)
			inter = nextR
		}
		plan.EstIntermediate = append(plan.EstIntermediate, inter)
	}
	for i, a := range plan.Order {
		if a != i {
			plan.Reordered = true
			break
		}
	}
	return plan
}

// fanout estimates the per-tuple multiplication factor of joining adjacency
// a onto an existing partial: the adjacency's estimated output divided by
// the cardinality of the side already covered by the partial (Left when
// extending right, Right when extending left). An empty covered side means
// the partial is already estimated empty; the factor degrades to the raw
// output estimate so the step still orders sensibly.
func fanout(a Adjacency, coveredLeft bool) float64 {
	covered := a.Right.Est
	if coveredLeft {
		covered = a.Left.Est
	}
	if covered <= 0 {
		return a.EstOut()
	}
	return a.EstOut() / covered
}

// BuildLeft decides the hash-join build side from actual materialized
// cardinalities: build the smaller side, probe the larger. Ties keep the
// historical build side (right), so planner-off behavior is the tie case.
func BuildLeft(leftLen, rightLen int) bool { return leftLen < rightLen }

// Step is one executed (or skipped) plan step in an Explain: the estimated
// cardinalities the decision was made on, side by side with what actually
// materialized.
type Step struct {
	// Adjacency is the chain adjacency index (0 for a two-way join).
	Adjacency int `json:"adjacency"`
	// LeftSource/RightSource name the adjacency's relations.
	LeftSource  string `json:"left_source"`
	RightSource string `json:"right_source"`
	// EstLeft/EstRight/EstOut are the planner's estimates: per-side answer
	// cardinalities and join output.
	EstLeft  float64 `json:"est_left"`
	EstRight float64 `json:"est_right"`
	EstOut   float64 `json:"est_out"`
	// ActLeft/ActRight/ActOut are the materialized cardinalities; -1 means
	// never materialized (the step was skipped or short-circuited away).
	ActLeft  int `json:"act_left"`
	ActRight int `json:"act_right"`
	ActOut   int `json:"act_out"`
	// BuildLeft reports which side the hash join built on.
	BuildLeft bool `json:"build_left,omitempty"`
	// Skipped reports the step never ran: an earlier step proved the chain
	// empty (or the side's circuit was open), so its fetches were saved.
	Skipped bool `json:"skipped,omitempty"`
}

// Explain reports the plan a join ran under: the chosen order and, per
// step, estimated vs actual cardinalities. Attached to JoinResult and
// ChainResult so callers can audit what the statistics predicted against
// what happened.
type Explain struct {
	// PlannerOn reports whether statistics-driven ordering made the
	// decisions (false = caller order throughout).
	PlannerOn bool `json:"planner_on"`
	// Order is the adjacency execution order.
	Order []int `json:"order"`
	// Steps are the plan steps in execution order.
	Steps []Step `json:"steps"`
}
