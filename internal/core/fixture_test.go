package core

import (
	"math/rand"
	"testing"

	"qpiad/internal/afd"
	"qpiad/internal/nbc"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// modelSpec plants the correlations the tests rely on: model determines
// make exactly, body_style approximately, and {model, year} determines
// price at ~0.8 confidence.
type modelSpec struct {
	model, make string
	styles      []string  // candidate body styles
	styleP      []float64 // probabilities (sum 1)
	basePrice   int64
}

var testModels = []modelSpec{
	{"A4", "Audi", []string{"Convt", "Sedan"}, []float64{0.7, 0.3}, 22000},
	{"Z4", "BMW", []string{"Convt", "Coupe"}, []float64{0.95, 0.05}, 30000},
	{"Boxster", "Porsche", []string{"Convt"}, []float64{1}, 38000},
	{"Civic", "Honda", []string{"Sedan", "Coupe"}, []float64{0.85, 0.15}, 14000},
	{"Camry", "Toyota", []string{"Sedan"}, []float64{1}, 18000},
	{"F150", "Ford", []string{"Truck"}, []float64{1}, 26000},
}

func carsSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "id", Kind: relation.KindInt},
		relation.Attribute{Name: "make", Kind: relation.KindString},
		relation.Attribute{Name: "model", Kind: relation.KindString},
		relation.Attribute{Name: "year", Kind: relation.KindInt},
		relation.Attribute{Name: "price", Kind: relation.KindInt},
		relation.Attribute{Name: "body_style", Kind: relation.KindString},
	)
}

// buildCarsGD generates a complete ("ground truth") car relation. The id
// column is a true key: its AFDs must be removed by AKey pruning, which the
// mediator tests exercise implicitly (a surviving id-based AFD would make
// every rewrite retrieve nothing).
func buildCarsGD(n int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New("cars", carsSchema())
	for i := 0; i < n; i++ {
		m := testModels[rng.Intn(len(testModels))]
		style := m.styles[0]
		u := rng.Float64()
		acc := 0.0
		for j, p := range m.styleP {
			acc += p
			if u < acc {
				style = m.styles[j]
				break
			}
		}
		year := 1998 + rng.Intn(8)
		price := m.basePrice + int64(year-1998)*500
		if rng.Float64() < 0.2 {
			price -= int64(1+rng.Intn(3)) * 250
		}
		r.MustInsert(relation.Tuple{
			relation.Int(int64(i)),
			relation.String(m.make),
			relation.String(m.model),
			relation.Int(int64(year)),
			relation.Int(price),
			relation.String(style),
		})
	}
	return r
}

// makeIncomplete nulls attr in a fraction of tuples, returning the
// experimental relation and the ground-truth values of the nulled cells
// keyed by tuple position.
func makeIncomplete(gd *relation.Relation, attr string, frac float64, seed int64) (*relation.Relation, map[int]relation.Value) {
	rng := rand.New(rand.NewSource(seed))
	col := gd.Schema.MustIndex(attr)
	ed := gd.Clone()
	truth := make(map[int]relation.Value)
	for i := 0; i < ed.Len(); i++ {
		if rng.Float64() < frac {
			truth[i] = ed.Tuple(i)[col]
			ed.Tuple(i)[col] = relation.Null()
		}
	}
	return ed, truth
}

// fixture bundles a ready-to-query mediator setup.
type fixture struct {
	gd     *relation.Relation
	ed     *relation.Relation
	truth  map[int]relation.Value
	src    *source.Source
	k      *Knowledge
	m      *Mediator
	sample *relation.Relation
	idCol  int
}

// newFixture builds the standard single-source test world: 4000 cars, 10%
// incompleteness on body_style, a 15% sample, default mining config.
func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	return newFixtureAttr(t, cfg, "body_style")
}

// newFixtureAttr is newFixture with a chosen incomplete attribute.
func newFixtureAttr(t *testing.T, cfg Config, nullAttr string) *fixture {
	t.Helper()
	gd := buildCarsGD(4000, 1)
	ed, truth := makeIncomplete(gd, nullAttr, 0.10, 2)
	src := source.New("cars", ed, source.Capabilities{})
	rng := rand.New(rand.NewSource(3))
	smpl := ed.Sample(600, rng)
	ratio := float64(ed.Len()) / float64(smpl.Len())
	k, err := MineKnowledge("cars", smpl, ratio, smpl.IncompleteFraction(), KnowledgeConfig{
		AFD:       afd.Config{MinSupport: 5},
		Predictor: nbc.PredictorConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := New(cfg)
	m.Register(src, k)
	return &fixture{
		gd: gd, ed: ed, truth: truth, src: src, k: k, m: m, sample: smpl,
		idCol: gd.Schema.MustIndex("id"),
	}
}

// src2 builds a second unlearned source over the same schema, for
// global-query fan-out tests.
func (f *fixture) src2(t *testing.T) *source.Source {
	t.Helper()
	gd := buildCarsGD(500, 99)
	return source.New("cars2", gd, source.Capabilities{})
}

// relevantNullCount counts tuples whose nulled attr value in GD satisfies
// the predicate — the denominator of recall for possible answers.
func (f *fixture) relevantNullCount(pred relation.Predicate) int {
	n := 0
	for _, v := range f.truth {
		if pred.Holds(v) {
			n++
		}
	}
	return n
}

// isRelevant checks a possible answer against ground truth via its id.
func (f *fixture) isRelevant(ans Answer, pred relation.Predicate) bool {
	id := int(ans.Tuple[f.idCol].IntVal())
	tv, ok := f.truth[id]
	return ok && pred.Holds(tv)
}

// precisionOf computes the fraction of the given answers that are relevant.
func (f *fixture) precisionOf(answers []Answer, pred relation.Predicate) float64 {
	if len(answers) == 0 {
		return 0
	}
	n := 0
	for _, a := range answers {
		if f.isRelevant(a, pred) {
			n++
		}
	}
	return float64(n) / float64(len(answers))
}
