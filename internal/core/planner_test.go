package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"qpiad/internal/afd"
	"qpiad/internal/breaker"
	"qpiad/internal/datagen"
	"qpiad/internal/faults"
	"qpiad/internal/nbc"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// plannerTwin builds a second mediator over the same sources and knowledge
// with the planner enabled, so planner-on and planner-off runs see
// byte-identical data.
func plannerTwin(m *Mediator) *Mediator {
	cfg := m.cfg
	cfg.Planner = true
	twin := New(cfg)
	for name, src := range m.sources {
		twin.Register(src, m.knowledge[name])
	}
	return twin
}

// randomChainSpec draws a 2- or 3-source chain over the fixture's world
// with randomized selections, alpha and K — including near-empty and empty
// selections so the planner's short-circuit path is exercised.
func randomChainSpec(rng *rand.Rand) ChainSpec {
	models := []string{"F150", "Civic", "Boxster", "Z4", "Corolla", "Miata", "zzz-none"}
	components := []string{"Electrical System", "Brakes", "Engine and Engine Cooling", "Suspension"}
	severities := []string{"severe", "moderate", "minor", "zzz-none"}
	alphas := []float64{0, 0.5, 1, 2}

	carsQ := relation.NewQuery("cars", relation.Eq("model", relation.String(models[rng.Intn(len(models))])))
	if rng.Intn(2) == 0 {
		carsQ = relation.NewQuery("cars",
			relation.Eq("model", relation.String(models[rng.Intn(len(models))])),
			relation.Eq("year", relation.Int(int64(2000+rng.Intn(8)))))
	}
	compQ := relation.NewQuery("complaints", relation.Eq("fire", relation.String("yes")))
	if rng.Intn(2) == 0 {
		compQ = relation.NewQuery("complaints",
			relation.Eq("general_component", relation.String(components[rng.Intn(len(components))])))
	}
	spec := ChainSpec{
		Sources:   []string{"cars", "complaints"},
		Queries:   []relation.Query{carsQ, compQ},
		JoinAttrs: [][2]string{{"model", "model"}},
		Alpha:     alphas[rng.Intn(len(alphas))],
		K:         4 + rng.Intn(8),
	}
	if rng.Intn(2) == 0 {
		spec.Sources = append(spec.Sources, "recalls")
		spec.Queries = append(spec.Queries, relation.NewQuery("recalls",
			relation.Eq("severity", relation.String(severities[rng.Intn(len(severities))]))))
		spec.JoinAttrs = append(spec.JoinAttrs, [2]string{"general_component", "component"})
	}
	return spec
}

// TestChainPlannerEquivalence is the randomized equivalence suite for the
// chain path: for random specs over a shared world, planner-on and
// planner-off must return identical certain answers and identically ranked
// possible answers (bit-identical confidences included — the canonical
// confidence order guarantees it).
func TestChainPlannerEquivalence(t *testing.T) {
	f := newChainFixture(t)
	on := plannerTwin(f.m)
	rng := rand.New(rand.NewSource(771))
	for trial := 0; trial < 30; trial++ {
		spec := randomChainSpec(rng)
		offRes, err := f.m.QueryJoinChain(spec)
		if err != nil {
			t.Fatalf("trial %d: planner-off: %v", trial, err)
		}
		onRes, err := on.QueryJoinChain(spec)
		if err != nil {
			t.Fatalf("trial %d: planner-on: %v", trial, err)
		}
		if !reflect.DeepEqual(offRes.Answers, onRes.Answers) {
			t.Fatalf("trial %d (%v): planner-on answers diverge: off=%d on=%d",
				trial, spec.Sources, len(offRes.Answers), len(onRes.Answers))
		}
		if offRes.Degraded || onRes.Degraded {
			t.Fatalf("trial %d: unexpected degradation on a fault-free world", trial)
		}
		if onRes.Explain == nil || !onRes.Explain.PlannerOn {
			t.Fatalf("trial %d: planner-on Explain missing or mislabelled", trial)
		}
		if offRes.Explain == nil || offRes.Explain.PlannerOn {
			t.Fatalf("trial %d: planner-off Explain missing or mislabelled", trial)
		}
	}
	if on.PlannerStats().Plans == 0 {
		t.Error("planner-on runs recorded no plans")
	}
}

// TestJoinPlannerEquivalence is the two-way analogue: random JoinSpecs,
// identical ranked answer sets with the planner on and off.
func TestJoinPlannerEquivalence(t *testing.T) {
	f := newChainFixture(t)
	on := plannerTwin(f.m)
	rng := rand.New(rand.NewSource(772))
	models := []string{"F150", "Civic", "Boxster", "Miata", "zzz-none"}
	for trial := 0; trial < 20; trial++ {
		spec := JoinSpec{
			LeftSource:  "cars",
			RightSource: "complaints",
			LeftQuery: relation.NewQuery("cars",
				relation.Eq("model", relation.String(models[rng.Intn(len(models))]))),
			RightQuery:    relation.NewQuery("complaints", relation.Eq("fire", relation.String("yes"))),
			LeftJoinAttr:  "model",
			RightJoinAttr: "model",
			Alpha:         []float64{0, 0.5, 2}[rng.Intn(3)],
			K:             4 + rng.Intn(8),
		}
		offRes, err := f.m.QueryJoin(spec)
		if err != nil {
			t.Fatalf("trial %d: planner-off: %v", trial, err)
		}
		onRes, err := on.QueryJoin(spec)
		if err != nil {
			t.Fatalf("trial %d: planner-on: %v", trial, err)
		}
		if !reflect.DeepEqual(offRes.Answers, onRes.Answers) {
			t.Fatalf("trial %d: planner-on join answers diverge: off=%d on=%d",
				trial, len(offRes.Answers), len(onRes.Answers))
		}
		if !reflect.DeepEqual(offRes.Pairs, onRes.Pairs) {
			t.Fatalf("trial %d: issued pair plans diverge", trial)
		}
	}
}

// slowChainFixture builds a 3-source chain world where the middle source
// answers with heavy latency — the knob the cancellation regression turns.
func slowChainFixture(t *testing.T, midLatency time.Duration) (*Mediator, []*source.Source) {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	mk := func(name string, gd *relation.Relation, nullAttr string, seed int64, lat time.Duration) (*source.Source, *Knowledge) {
		ed, _ := datagen.MakeIncompleteAttr(gd, nullAttr, 0.10, seed)
		src := source.New(name, ed, source.Capabilities{Latency: lat})
		smpl := ed.Sample(ed.Len()/8, rng)
		k, err := MineKnowledge(name, smpl,
			float64(ed.Len())/float64(smpl.Len()), smpl.IncompleteFraction(),
			KnowledgeConfig{AFD: afd.Config{MinSupport: 5}, Predictor: nbc.PredictorConfig{}})
		if err != nil {
			t.Fatal(err)
		}
		return src, k
	}
	carsSrc, carsK := mk("cars", datagen.Cars(600, 92), "model", 95, 0)
	compSrc, compK := mk("complaints", datagen.Complaints(600, 93), "general_component", 96, midLatency)
	recSrc, recK := mk("recalls", datagen.Recalls(300, 94), "severity", 97, 0)
	m := New(Config{Alpha: 0.5, K: 8})
	m.Register(carsSrc, carsK)
	m.Register(compSrc, compK)
	m.Register(recSrc, recK)
	return m, []*source.Source{carsSrc, compSrc, recSrc}
}

// TestChainCancellationLazyBases is the regression for the eager base
// fetch: cancelling mid-adjacency (while the second source's base query is
// in flight) must leave the downstream sources untouched — under lazy
// plan-order fetching their base queries were never issued.
func TestChainCancellationLazyBases(t *testing.T) {
	m, srcs := slowChainFixture(t, 30*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := m.QueryJoinChainCtx(ctx, chainSpec(0.5, 8))
	if err == nil {
		t.Fatal("cancelled chain returned no error")
	}
	if q := srcs[0].Stats().Queries; q != 1 {
		t.Errorf("source 0 queries = %d, want exactly the base query", q)
	}
	if q := srcs[1].Stats().Queries; q != 1 {
		t.Errorf("source 1 queries = %d, want the (cancelled) base query", q)
	}
	if q := srcs[2].Stats().Queries; q != 0 {
		t.Errorf("source 2 queries = %d, want 0 — its base must never be issued", q)
	}
}

// TestChainValidationBeforeFetch pins the other half of laziness: a spec
// with an unknown join attribute must fail before any source round-trip.
func TestChainValidationBeforeFetch(t *testing.T) {
	m, srcs := slowChainFixture(t, 0)
	bad := chainSpec(0.5, 8)
	bad.JoinAttrs[1] = [2]string{"nope", "component"}
	if _, err := m.QueryJoinChain(bad); err == nil {
		t.Fatal("unknown join attribute should error")
	}
	for i, src := range srcs {
		if q := src.Stats().Queries; q != 0 {
			t.Errorf("source %d queries = %d, want 0 — validation must precede fetches", i, q)
		}
	}
}

// openChainFixture attaches an aggressive breaker and a
// first-query-succeeds-then-down fault schedule to the complaints source
// (the rewrite-heavy one), so its base query lands but every rewrite fails
// until the circuit opens.
func openChainFixture(t *testing.T, plannerOn bool) (*Mediator, *source.Source) {
	t.Helper()
	m, srcs := slowChainFixture(t, 0)
	cfg := m.cfg
	cfg.Retry = fastRetry(1)
	if plannerOn {
		cfg.Planner = true
	}
	m2 := New(cfg)
	for name, src := range m.sources {
		m2.Register(src, m.knowledge[name])
	}
	srcs[1].SetBreaker(breaker.New("complaints", *trippy()))
	srcs[1].SetFaults(faults.New(faults.Profile{FlapUp: 1, FlapDown: 1 << 30}))
	return m2, srcs[1]
}

// TestChainOpenCircuitAccountingParity is the degradation-parity check:
// when a source's circuit opens mid-plan, the chain path must account the
// skipped rewrites exactly like the two-way path — Degraded set, the
// skipped selectivity summed into EstSavedTuples, and the remaining
// rewrites never issued.
func TestChainOpenCircuitAccountingParity(t *testing.T) {
	for _, plannerOn := range []bool{false, true} {
		m, src := openChainFixture(t, plannerOn)
		res, err := m.QueryJoinChain(chainSpec(0.5, 8))
		if err != nil {
			t.Fatalf("plannerOn=%v: %v", plannerOn, err)
		}
		if !res.Degraded {
			t.Errorf("plannerOn=%v: open-circuit chain must be Degraded", plannerOn)
		}
		if res.EstSavedTuples <= 0 {
			t.Errorf("plannerOn=%v: EstSavedTuples = %v, want > 0 for open-circuit skips",
				plannerOn, res.EstSavedTuples)
		}
		if st := src.Breaker().State(); st != breaker.StateOpen {
			t.Errorf("plannerOn=%v: breaker state = %v, want open", plannerOn, st)
		}
		// At most base + the failures needed to open the circuit reached the
		// source; the rest of the plan was skipped unissued.
		maxIssued := 1 + trippy().ConsecutiveFailures
		if q := src.Stats().Queries; q > maxIssued {
			t.Errorf("plannerOn=%v: source saw %d queries, want <= %d (rest skipped)",
				plannerOn, q, maxIssued)
		}
	}
}

// TestJoinOpenCircuitAccounting is the two-way side of the parity: the
// same breaker scenario through QueryJoin must produce the same
// accounting semantics.
func TestJoinOpenCircuitAccounting(t *testing.T) {
	for _, plannerOn := range []bool{false, true} {
		m, src := openChainFixture(t, plannerOn)
		res, err := m.QueryJoin(JoinSpec{
			LeftSource:  "cars",
			RightSource: "complaints",
			LeftQuery: relation.NewQuery("cars",
				relation.Eq("model", relation.String("F150"))),
			RightQuery: relation.NewQuery("complaints",
				relation.Eq("general_component", relation.String("Electrical System"))),
			LeftJoinAttr:  "model",
			RightJoinAttr: "model",
			Alpha:         0.5,
			K:             8,
		})
		if err != nil {
			t.Fatalf("plannerOn=%v: %v", plannerOn, err)
		}
		if !res.Degraded {
			t.Errorf("plannerOn=%v: open-circuit join must be Degraded", plannerOn)
		}
		if res.EstSavedTuples <= 0 {
			t.Errorf("plannerOn=%v: EstSavedTuples = %v, want > 0 for open-circuit skips",
				plannerOn, res.EstSavedTuples)
		}
		if st := src.Breaker().State(); st != breaker.StateOpen {
			t.Errorf("plannerOn=%v: breaker state = %v, want open", plannerOn, st)
		}
	}
}

// TestChainPlannerShortCircuit pins the saved work: an empty selection at
// one end of the chain lets the planner skip every downstream rewrite
// fetch, without degrading the (provably empty) result.
func TestChainPlannerShortCircuit(t *testing.T) {
	f := newChainFixture(t)
	on := plannerTwin(f.m)
	spec := chainSpec(0.5, 8)
	// No recalls are "zzz-none" severe, so the recalls side is empty and its
	// adjacency is the cheapest seed.
	spec.Queries[2] = relation.NewQuery("recalls",
		relation.Eq("severity", relation.String("zzz-none")))

	offRes, err := f.m.QueryJoinChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	onRes, err := on.QueryJoinChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(offRes.Answers) != 0 || len(onRes.Answers) != 0 {
		t.Fatalf("want empty answer sets, got off=%d on=%d", len(offRes.Answers), len(onRes.Answers))
	}
	if onRes.Degraded {
		t.Error("planner short-circuit must not be reported as degradation")
	}
	if onRes.Explain == nil {
		t.Fatal("missing Explain")
	}
	skippedSteps := 0
	for _, st := range onRes.Explain.Steps {
		if st.Skipped {
			skippedSteps++
		}
	}
	if skippedSteps == 0 {
		t.Error("planner-on empty chain should skip at least one step")
	}
	if got := on.PlannerStats().SkippedFetches; got == 0 {
		t.Error("planner-on empty chain should skip rewrite fetches")
	}
}
