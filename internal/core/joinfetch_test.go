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

	"qpiad/internal/planner"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// configTwin is a mediator over m's sources and knowledge with the planner
// and the fetch parallelism set as given.
func configTwin(m *Mediator, plannerOn bool, parallel int) *Mediator {
	cfg := m.cfg
	cfg.Planner = plannerOn
	cfg.Parallel = parallel
	twin := New(cfg)
	for name, src := range m.sources {
		twin.Register(src, m.knowledge[name])
	}
	return twin
}

// randomJoinSpec draws a two-way join over the chain fixture's cars and
// complaints: TestJoinPlannerEquivalence's specs, with general_component
// selections on the right as well as fire ones.
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

// renderJoin writes a two-way join result as the pin sees it.
func renderJoin(b *strings.Builder, res *JoinResult, queries []int) {
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
	renderSteps(b, res.Explain)
	fmt.Fprintf(b, "degraded %t saved %x queries %v\n", res.Degraded, math.Float64bits(res.EstSavedTuples), queries)
}

// renderSteps writes a join's Explain steps.
func renderSteps(b *strings.Builder, ex *planner.Explain) {
	fmt.Fprintf(b, "order %v\n", ex.Order)
	for _, st := range ex.Steps {
		fmt.Fprintf(b, "step %d %s %s %x %x %x %d %d %d %t %t\n", st.Adjacency, st.LeftSource, st.RightSource,
			math.Float64bits(st.EstLeft), math.Float64bits(st.EstRight), math.Float64bits(st.EstOut),
			st.ActLeft, st.ActRight, st.ActOut, st.BuildLeft, st.Skipped)
	}
}

// renderChain writes a chain join result as the pin sees it.
func renderChain(b *strings.Builder, res *ChainResult, queries []int) {
	fmt.Fprintf(b, "pairs %v\n", res.PairsPerAdjacency)
	renderSteps(b, res.Explain)
	for _, a := range res.Answers {
		b.WriteString("answer")
		for _, t := range a.Tuples {
			writeTuple(b, t)
			b.WriteString(" |")
		}
		fmt.Fprintf(b, " %t %x\n", a.Certain, math.Float64bits(a.Confidence))
	}
	fmt.Fprintf(b, "degraded %t saved %x queries %v\n", res.Degraded, math.Float64bits(res.EstSavedTuples), queries)
}

// TestJoinChainAnswersPinned pins, by SHA-256 digest, what seeded two-way
// joins and chains return on the chain fixture: every answer's member
// tuples, certain flag and confidence bits, the issued pairs, Degraded,
// EstSavedTuples, the Explain steps and the queries each call sent.
// Each spec runs at Parallel 1 and 4, which must render identically, with
// the planner off and on, whose answers must match; the four digests keep
// the two modes of each join shape apart.
func TestJoinChainAnswersPinned(t *testing.T) {
	f := newChainFixture(t)
	var meds [2][2]*Mediator // [planner off/on][Parallel 1/4]
	for p, on := range []bool{false, true} {
		for q, par := range []int{1, 4} {
			meds[p][q] = configTwin(f.m, on, par)
		}
	}
	// pin runs one join on every twin through call, which renders it and
	// returns its answers, and gives the planner-off and planner-on
	// renderings.
	pin := func(what string, call func(m *Mediator, b *strings.Builder) any) [2]string {
		var out [2]string
		var answers [2]any
		for p := range meds {
			var renders [2]string
			for q, m := range meds[p] {
				var b strings.Builder
				answers[p] = call(m, &b)
				renders[q] = b.String()
			}
			if renders[0] != renders[1] {
				t.Fatalf("%s planner=%v: Parallel 4 renders differently from Parallel 1:\n%s\nvs\n%s",
					what, p == 1, renders[0], renders[1])
			}
			out[p] = renders[0]
		}
		if !reflect.DeepEqual(answers[0], answers[1]) {
			t.Fatalf("%s: planner-on answers diverge", what)
		}
		return out
	}
	const trials = 60
	var join, chain [2]strings.Builder
	rng := rand.New(rand.NewSource(2501))
	for trial := 0; trial < trials; trial++ {
		spec := randomJoinSpec(rng)
		what := fmt.Sprintf("join trial %d", trial)
		r := pin(what, func(m *Mediator, b *strings.Builder) any {
			var res *JoinResult
			var err error
			queries := callQueries(m, func() { res, err = m.QueryJoin(spec) })
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			renderJoin(b, res, queries)
			return res.Answers
		})
		for p := range r {
			fmt.Fprintf(&join[p], "trial %d\n%s", trial, r[p])
		}
	}
	rng = rand.New(rand.NewSource(2502))
	for trial := 0; trial < trials; trial++ {
		spec := randomChainSpec(rng)
		what := fmt.Sprintf("chain trial %d", trial)
		r := pin(what, func(m *Mediator, b *strings.Builder) any {
			var res *ChainResult
			var err error
			queries := callQueries(m, func() { res, err = m.QueryJoinChain(spec) })
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			renderChain(b, res, queries)
			return res.Answers
		})
		for p := range r {
			fmt.Fprintf(&chain[p], "trial %d\n%s", trial, r[p])
		}
	}

	// Captured before the two-way join fetched through the engine and
	// both join shapes shared one hash join; nothing these cover moved.
	want := [4]string{
		"ac380b39151f9593bf9de43bb2ae79000359dddc1519e22aa2441fc69dae7a24",
		"a450310bc67df6db640ed498ca59531ebbd0bb3c7155a976316ed00fde97ca14",
		"db7ff02f3c466a452f21cb94fc5ace3a9cdf6882ae95cb41ac126f979fde6aad",
		"ceefe49c5d5d9cb216a225f7cf83d23316e5ae0ab85e6a02a30656d78878252a",
	}
	names := [4]string{"join, planner off", "join, planner on", "chain, planner off", "chain, planner on"}
	for i, b := range []*strings.Builder{&join[0], &join[1], &chain[0], &chain[1]} {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))); got != want[i] {
			t.Errorf("%s: digest %s, want %s", names[i], got, want[i])
		}
	}
}

// TestJoinStopsAtBudget checks that a two-way join stops sending a side's
// component rewrites at the source's first budget refusal, as every other
// fan-out does: the rest resolve unissued, so the source counts one
// rejection whatever the budget, the parallelism and the planner mode.
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
	for _, plannerOn := range []bool{false, true} {
		for _, parallel := range []int{1, 4} {
			for budget := 1; budget <= 3; budget++ {
				m := configTwin(f.m, plannerOn, parallel)
				comp := source.New("complaints", f.comp, source.Capabilities{MaxQueries: budget})
				m.Register(comp, f.m.knowledge["complaints"])
				res, err := m.QueryJoin(spec)
				if err != nil {
					t.Fatalf("planner=%v parallel=%d budget=%d: %v", plannerOn, parallel, budget, err)
				}
				if got := comp.Stats().Rejected; got != 1 {
					t.Errorf("planner=%v parallel=%d budget=%d: complaints rejected %d queries, want 1",
						plannerOn, parallel, budget, got)
				}
				if !res.Degraded {
					t.Errorf("planner=%v parallel=%d budget=%d: a refused component must degrade the join",
						plannerOn, parallel, budget)
				}
				if got := len(res.Answers); got != wantAnswers[budget] {
					t.Errorf("planner=%v parallel=%d budget=%d: %d answers, want %d",
						plannerOn, parallel, budget, got, wantAnswers[budget])
				}
			}
		}
	}
}
