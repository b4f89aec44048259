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

// randomChainSpec draws a 2- or 3-source chain over the fixture's world
// with randomized selections, alpha and K — including near-empty and empty
// selections, so some chains end at an empty base.
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
	if _, err := m.QueryJoinChainCtx(context.Background(), bad); err == nil {
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
func openChainFixture(t *testing.T) (*Mediator, *source.Source) {
	t.Helper()
	m, srcs := slowChainFixture(t, 0)
	cfg := m.cfg
	cfg.Retry = fastRetry(1)
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
	m, src := openChainFixture(t)
	res, err := m.QueryJoinChainCtx(context.Background(), chainSpec(0.5, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Error("open-circuit chain must be Degraded")
	}
	if res.EstSavedTuples <= 0 {
		t.Errorf("EstSavedTuples = %v, want > 0 for open-circuit skips", res.EstSavedTuples)
	}
	if st := src.Breaker().State(); st != breaker.StateOpen {
		t.Errorf("breaker state = %v, want open", st)
	}
	// At most base + the failures needed to open the circuit reached the
	// source; the rest of the plan was skipped unissued.
	maxIssued := 1 + trippy().ConsecutiveFailures
	if q := src.Stats().Queries; q > maxIssued {
		t.Errorf("source saw %d queries, want <= %d (rest skipped)", q, maxIssued)
	}
}

// TestJoinOpenCircuitAccounting is the two-way side of the parity: the
// same breaker scenario through QueryJoinCtx must produce the same
// accounting semantics.
func TestJoinOpenCircuitAccounting(t *testing.T) {
	m, src := openChainFixture(t)
	res, err := m.QueryJoinCtx(context.Background(), JoinSpec{
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
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Error("open-circuit join must be Degraded")
	}
	if res.EstSavedTuples <= 0 {
		t.Errorf("EstSavedTuples = %v, want > 0 for open-circuit skips", res.EstSavedTuples)
	}
	if st := src.Breaker().State(); st != breaker.StateOpen {
		t.Errorf("breaker state = %v, want open", st)
	}
}

// TestChainEmptyBaseSendsNoRewrites pins the saved work: an empty
// selection at one end of the chain ends it after the base queries, so
// each source sees exactly one query, and the (provably empty) result is
// not degraded.
func TestChainEmptyBaseSendsNoRewrites(t *testing.T) {
	f := newChainFixture(t)
	spec := chainSpec(0.5, 8)
	// No recalls are "zzz-none" severe, so the recalls side is empty.
	spec.Queries[2] = relation.NewQuery("recalls",
		relation.Eq("severity", relation.String("zzz-none")))
	var res *ChainResult
	var err error
	queries := callQueries(f.m, func() { res, err = f.m.QueryJoinChainCtx(context.Background(), spec) })
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 1, 1}; !reflect.DeepEqual(queries, want) {
		t.Errorf("queries per source = %v, want %v (base queries only)", queries, want)
	}
	if len(res.Answers) != 0 {
		t.Errorf("%d answers, want 0", len(res.Answers))
	}
	if res.EstSavedTuples <= 0 {
		t.Errorf("EstSavedTuples = %v, want > 0: the selected rewrites were never sent", res.EstSavedTuples)
	}
	if res.Degraded {
		t.Error("an empty base must not degrade the chain")
	}
}
