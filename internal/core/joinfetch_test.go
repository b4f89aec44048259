package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// configTwin is a mediator over m's sources and knowledge with the fetch
// parallelism set as given.
func configTwin(m *Mediator, parallel int) *Mediator {
	cfg := m.cfg
	cfg.Parallel = parallel
	twin := New(cfg)
	for name, src := range m.sources {
		twin.Register(src, m.knowledge[name])
	}
	return twin
}

// randomJoinSpec draws a two-way join over the chain fixture's cars and
// complaints, with model selections on the left (one of them empty) and
// fire or general_component selections on the right.
func randomJoinSpec(rng *rand.Rand) JoinSpec {
	models := []string{"F150", "Civic", "Boxster", "Miata", "zzz-none"}
	components := []string{"Electrical System", "Brakes", "Engine and Engine Cooling", "Suspension"}
	right := relation.NewQuery("complaints", relation.Eq("fire", relation.String("yes")))
	if rng.Intn(2) == 0 {
		right = relation.NewQuery("complaints",
			relation.Eq("general_component", relation.String(components[rng.Intn(len(components))])))
	}
	return JoinSpec{
		LeftSource:  "cars",
		RightSource: "complaints",
		LeftQuery: relation.NewQuery("cars",
			relation.Eq("model", relation.String(models[rng.Intn(len(models))]))),
		RightQuery:    right,
		LeftJoinAttr:  "model",
		RightJoinAttr: "model",
		Alpha:         []float64{0, 0.5, 2}[rng.Intn(3)],
		K:             4 + rng.Intn(8),
	}
}

// sourceQueries returns every source's query count, in name order.
func sourceQueries(m *Mediator) []int {
	names := make([]string, 0, len(m.sources))
	for name := range m.sources {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]int, len(names))
	for i, name := range names {
		out[i] = m.sources[name].Stats().Queries
	}
	return out
}

// callQueries runs call and returns how many queries it sent each source.
func callQueries(m *Mediator, call func()) []int {
	before := sourceQueries(m)
	call()
	after := sourceQueries(m)
	for i := range after {
		after[i] -= before[i]
	}
	return after
}

func writeTuple(b *strings.Builder, t relation.Tuple) {
	for _, v := range t {
		b.WriteString(" ")
		b.WriteString(v.String())
	}
}

// renderJoinAnswers writes what a two-way join answers: the issued pairs,
// the answers and Degraded.
func renderJoinAnswers(b *strings.Builder, res *JoinResult) {
	for _, p := range res.Pairs {
		fmt.Fprintf(b, "pair %s | %s %t %t %x %x %x %x\n", p.Left.String(), p.Right.String(),
			p.LeftComplete, p.RightComplete, math.Float64bits(p.Precision),
			math.Float64bits(p.EstSel), math.Float64bits(p.Recall), math.Float64bits(p.F))
	}
	for _, a := range res.Answers {
		b.WriteString("answer")
		writeTuple(b, a.Left)
		b.WriteString(" |")
		writeTuple(b, a.Right)
		fmt.Fprintf(b, " | %s %t %x\n", a.JoinValue.String(), a.Certain, math.Float64bits(a.Confidence))
	}
	fmt.Fprintf(b, "degraded %t\n", res.Degraded)
}

// renderChainAnswers writes what a chain answers: the pairs each adjacency
// issued, the answers and Degraded.
func renderChainAnswers(b *strings.Builder, res *ChainResult) {
	fmt.Fprintf(b, "pairs %v\n", res.PairsPerAdjacency)
	for _, a := range res.Answers {
		b.WriteString("answer")
		for _, t := range a.Tuples {
			writeTuple(b, t)
			b.WriteString(" |")
		}
		fmt.Fprintf(b, " %t %x\n", a.Certain, math.Float64bits(a.Confidence))
	}
	fmt.Fprintf(b, "degraded %t\n", res.Degraded)
}

// pinJoins runs 60 seeded joins at Parallel 1 and 4, which must render
// identically, and checks two SHA-256 digests: one over what the joins
// answered and one over their accounting, EstSavedTuples and the queries
// each join sent every source. next draws a trial's join from rng and
// returns the call that runs it on a mediator, renders its answers into b
// and returns its EstSavedTuples.
func pinJoins(t *testing.T, seed int64, next func(rng *rand.Rand) func(m *Mediator, b *strings.Builder) float64, wantAnswers, wantAccounting string) {
	t.Helper()
	f := newChainFixture(t)
	meds := []*Mediator{configTwin(f.m, 1), configTwin(f.m, 4)}
	var answers, accounting strings.Builder
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 60; trial++ {
		call := next(rng)
		var renders [2][2]string // [Parallel 1/4][answers/accounting]
		for i, m := range meds {
			var b strings.Builder
			var saved float64
			queries := callQueries(m, func() { saved = call(m, &b) })
			renders[i] = [2]string{b.String(), fmt.Sprintf("saved %x queries %v\n", math.Float64bits(saved), queries)}
		}
		if renders[0] != renders[1] {
			t.Fatalf("trial %d: Parallel 4 renders differently from Parallel 1:\n%s\nvs\n%s",
				trial, renders[0], renders[1])
		}
		fmt.Fprintf(&answers, "trial %d\n%s", trial, renders[0][0])
		fmt.Fprintf(&accounting, "trial %d\n%s", trial, renders[0][1])
	}
	for _, d := range []struct{ what, text, want string }{
		{"answer", answers.String(), wantAnswers},
		{"accounting", accounting.String(), wantAccounting},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(d.text))); got != d.want {
			t.Errorf("%s digest %s, want %s", d.what, got, d.want)
		}
	}
}

// TestJoinAnswersPinned pins, by digest, what seeded two-way joins on the
// chain fixture return (issued pairs, answers' tuples, certain flags and
// confidence bits, Degraded) and what they cost (EstSavedTuples bits and
// the queries each join sent every source).
func TestJoinAnswersPinned(t *testing.T) {
	pinJoins(t, 2501, func(rng *rand.Rand) func(*Mediator, *strings.Builder) float64 {
		spec := randomJoinSpec(rng)
		return func(m *Mediator, b *strings.Builder) float64 {
			res, err := m.QueryJoin(spec)
			if err != nil {
				t.Fatalf("%+v: %v", spec, err)
			}
			renderJoinAnswers(b, res)
			return res.EstSavedTuples
		}
	},
		// Captured with the planner off and on before joins ran without
		// statistics; the two agreed.
		"de169157f1c6576ef2c00d298a7ce807a10795d08af0a29ae37312911eab47d2",
		// Re-pinned when an empty base began to end the join: those joins
		// send their base queries only and count every selected rewrite
		// as saved.
		"ac338eb73cef0eb1e7746c90cd7d57140cb4f0657501f25828bbf9d4848a1d26")
}

// TestChainAnswersPinned is TestJoinAnswersPinned for seeded chains of two
// and three sources, which pin PairsPerAdjacency in place of the pairs.
func TestChainAnswersPinned(t *testing.T) {
	pinJoins(t, 2502, func(rng *rand.Rand) func(*Mediator, *strings.Builder) float64 {
		spec := randomChainSpec(rng)
		return func(m *Mediator, b *strings.Builder) float64 {
			res, err := m.QueryJoinChain(spec)
			if err != nil {
				t.Fatalf("%+v: %v", spec, err)
			}
			renderChainAnswers(b, res)
			return res.EstSavedTuples
		}
	},
		// Captured with the planner off and on before chains ran without
		// statistics; the two agreed.
		"6ef6d85a3eb0beb982e5885a02ea4b38bb93e805387352b81d20ab9e764a3cf3",
		// Re-pinned when an empty base began to end the chain and every
		// other chain began to fetch all its sources at once.
		"e1caee011ceced9e9026c771fc0d6976fb4ebd55e7e16728d7b99f6282eca506")
}

// TestJoinEmptyBaseSendsNoRewrites checks that a two-way join whose left
// base set is empty sends the right source its base query and nothing
// else: the join is exactly empty, not degraded, and the right side's
// selected rewrites count as saved.
func TestJoinEmptyBaseSendsNoRewrites(t *testing.T) {
	f := newChainFixture(t)
	spec := JoinSpec{
		LeftSource:  "cars",
		RightSource: "complaints",
		LeftQuery:   relation.NewQuery("cars", relation.Eq("model", relation.String("zzz-none"))),
		RightQuery: relation.NewQuery("complaints",
			relation.Eq("general_component", relation.String("Electrical System"))),
		LeftJoinAttr:  "model",
		RightJoinAttr: "model",
		Alpha:         0.5,
		K:             10,
	}
	var res *JoinResult
	var err error
	queries := callQueries(f.m, func() { res, err = f.m.QueryJoin(spec) })
	if err != nil {
		t.Fatal(err)
	}
	// sourceQueries orders by name: cars, complaints, recalls.
	if want := []int{1, 1, 0}; !reflect.DeepEqual(queries, want) {
		t.Errorf("queries per source = %v, want %v (base queries only)", queries, want)
	}
	if len(res.Answers) != 0 {
		t.Errorf("%d answers, want 0", len(res.Answers))
	}
	if res.EstSavedTuples <= 0 {
		t.Errorf("EstSavedTuples = %v, want > 0: the right side's selected rewrites were never sent", res.EstSavedTuples)
	}
	if res.Degraded {
		t.Error("an empty base must not degrade the join")
	}
}

// TestJoinStopsAtBudget checks that a two-way join stops sending a side's
// component rewrites at the source's first budget refusal, as every other
// fan-out does: the rest resolve unissued, so the source counts one
// rejection whatever the budget and the parallelism.
func TestJoinStopsAtBudget(t *testing.T) {
	f := newChainFixture(t)
	spec := JoinSpec{
		LeftSource:  "cars",
		RightSource: "complaints",
		LeftQuery:   relation.NewQuery("cars", relation.Eq("model", relation.String("F150"))),
		RightQuery: relation.NewQuery("complaints",
			relation.Eq("general_component", relation.String("Electrical System"))),
		LeftJoinAttr:  "model",
		RightJoinAttr: "model",
		Alpha:         0.5,
		K:             10,
	}
	// The answers each budget leaves, the same as when the join kept
	// sending its components after the first refusal.
	wantAnswers := map[int]int{1: 6024, 2: 6285, 3: 6362}
	for _, parallel := range []int{1, 4} {
		for budget := 1; budget <= 3; budget++ {
			m := configTwin(f.m, parallel)
			comp := source.New("complaints", f.comp, source.Capabilities{MaxQueries: budget})
			m.Register(comp, f.m.knowledge["complaints"])
			res, err := m.QueryJoin(spec)
			if err != nil {
				t.Fatalf("parallel=%d budget=%d: %v", parallel, budget, err)
			}
			if got := comp.Stats().Rejected; got != 1 {
				t.Errorf("parallel=%d budget=%d: complaints rejected %d queries, want 1",
					parallel, budget, got)
			}
			if !res.Degraded {
				t.Errorf("parallel=%d budget=%d: a refused component must degrade the join",
					parallel, budget)
			}
			if got := len(res.Answers); got != wantAnswers[budget] {
				t.Errorf("parallel=%d budget=%d: %d answers, want %d",
					parallel, budget, got, wantAnswers[budget])
			}
		}
	}
}
