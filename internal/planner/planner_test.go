package planner

import (
	"math/rand"
	"testing"
)

func TestEstOut(t *testing.T) {
	a := Adjacency{
		Left:  Side{Est: 100, Distinct: 10},
		Right: Side{Est: 50, Distinct: 25},
	}
	// 100*50/max(10,25) = 200.
	if got := a.EstOut(); got != 200 {
		t.Errorf("EstOut = %v, want 200", got)
	}
	// Unknown distinct counts degrade to the cross-product bound.
	a = Adjacency{Left: Side{Est: 4}, Right: Side{Est: 3}}
	if got := a.EstOut(); got != 12 {
		t.Errorf("EstOut without distinct = %v, want 12", got)
	}
	// An empty side estimates an empty join.
	a = Adjacency{Left: Side{Est: 0, Distinct: 5}, Right: Side{Est: 9, Distinct: 3}}
	if got := a.EstOut(); got != 0 {
		t.Errorf("EstOut with empty side = %v, want 0", got)
	}
}

func TestPlanChainDegenerate(t *testing.T) {
	p := PlanChain(nil)
	if len(p.Order) != 0 || p.Reordered {
		t.Errorf("empty plan = %+v", p)
	}
	p = PlanChain([]Adjacency{{Left: Side{Est: 1}, Right: Side{Est: 1}}})
	if len(p.Order) != 1 || p.Order[0] != 0 || p.Reordered {
		t.Errorf("single-adjacency plan = %+v", p)
	}
}

func TestPlanChainStartsAtCheapestAdjacency(t *testing.T) {
	// Caller order is pessimal: the provably-empty adjacency is last.
	adj := []Adjacency{
		{Left: Side{Est: 1000, Distinct: 10}, Right: Side{Est: 1000, Distinct: 10}},
		{Left: Side{Est: 1000, Distinct: 10}, Right: Side{Est: 500, Distinct: 10}},
		{Left: Side{Est: 500, Distinct: 10}, Right: Side{Est: 0, Distinct: 10}},
	}
	p := PlanChain(adj)
	if p.Order[0] != 2 {
		t.Fatalf("plan should start at the empty adjacency: %v", p.Order)
	}
	if !p.Reordered {
		t.Error("plan should report reordering")
	}
	if p.EstIntermediate[0] != 0 {
		t.Errorf("first intermediate estimate = %v, want 0", p.EstIntermediate[0])
	}
	// From adjacency 2 the only way to grow is leftward.
	want := []int{2, 1, 0}
	for i, a := range want {
		if p.Order[i] != a {
			t.Fatalf("order = %v, want %v", p.Order, want)
		}
	}
}

func TestPlanChainKeepsOptimalCallerOrder(t *testing.T) {
	// Ascending cost left to right: caller order is already the greedy
	// choice, so the plan must be the identity.
	adj := []Adjacency{
		{Left: Side{Est: 1, Distinct: 1}, Right: Side{Est: 2, Distinct: 1}},
		{Left: Side{Est: 2, Distinct: 1}, Right: Side{Est: 100, Distinct: 1}},
		{Left: Side{Est: 100, Distinct: 1}, Right: Side{Est: 1000, Distinct: 1}},
	}
	p := PlanChain(adj)
	if p.Reordered {
		t.Errorf("optimal caller order reordered: %v", p.Order)
	}
}

// TestPlanChainIntervalInvariant: every prefix of the order is a contiguous
// interval of adjacency indices, every adjacency appears exactly once, and
// the plan is deterministic — the greedy executor's structural contract,
// checked over randomized statistics.
func TestPlanChainIntervalInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		adj := make([]Adjacency, n)
		for i := range adj {
			adj[i] = Adjacency{
				Left:  Side{Est: float64(rng.Intn(1000)), Distinct: rng.Intn(50)},
				Right: Side{Est: float64(rng.Intn(1000)), Distinct: rng.Intn(50)},
			}
		}
		p := PlanChain(adj)
		if len(p.Order) != n || len(p.EstIntermediate) != n {
			t.Fatalf("trial %d: plan sizes %d/%d, want %d", trial, len(p.Order), len(p.EstIntermediate), n)
		}
		lo, hi := p.Order[0], p.Order[0]
		seen := make([]bool, n)
		for _, a := range p.Order {
			if a < 0 || a >= n || seen[a] {
				t.Fatalf("trial %d: invalid or repeated adjacency %d in %v", trial, a, p.Order)
			}
			seen[a] = true
			switch {
			case a == lo-1:
				lo = a
			case a == hi+1:
				hi = a
			case a == lo && a == hi:
				// The seed itself.
			default:
				t.Fatalf("trial %d: order %v is not interval growth", trial, p.Order)
			}
		}
		p2 := PlanChain(adj)
		for i := range p.Order {
			if p.Order[i] != p2.Order[i] {
				t.Fatalf("trial %d: plan not deterministic: %v vs %v", trial, p.Order, p2.Order)
			}
		}
	}
}

func TestBuildLeft(t *testing.T) {
	if !BuildLeft(3, 10) {
		t.Error("smaller left side should build")
	}
	if BuildLeft(10, 3) {
		t.Error("larger left side should probe")
	}
	// Ties keep the historical build side (right).
	if BuildLeft(5, 5) {
		t.Error("tie must keep the right build side")
	}
}
