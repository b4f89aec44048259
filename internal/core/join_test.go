package core

import (
	"context"
	"math/rand"
	"testing"

	"qpiad/internal/afd"
	"qpiad/internal/nbc"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// complaintSpec plants model ~> component at ~0.8.
var complaintComponents = map[string][]string{
	"A4":      {"Electrical", "Engine"},
	"Z4":      {"Electrical", "Brakes"},
	"Boxster": {"Engine", "Brakes"},
	"Civic":   {"Brakes", "Electrical"},
	"Camry":   {"Engine", "Electrical"},
	"F150":    {"Electrical", "Engine"},
}

func buildComplaintsGD(n int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	s := relation.MustSchema(
		relation.Attribute{Name: "cid", Kind: relation.KindInt},
		relation.Attribute{Name: "model", Kind: relation.KindString},
		relation.Attribute{Name: "year", Kind: relation.KindInt},
		relation.Attribute{Name: "component", Kind: relation.KindString},
	)
	r := relation.New("complaints", s)
	for i := 0; i < n; i++ {
		m := testModels[rng.Intn(len(testModels))]
		comps := complaintComponents[m.model]
		comp := comps[0]
		if rng.Float64() < 0.2 {
			comp = comps[1]
		}
		r.MustInsert(relation.Tuple{
			relation.Int(int64(i)),
			relation.String(m.model),
			relation.Int(int64(1998 + rng.Intn(8))),
			relation.String(comp),
		})
	}
	return r
}

type joinFixture struct {
	*fixture
	complaintsGD *relation.Relation
	complaintsED *relation.Relation
	ctruth       map[int]relation.Value
	csrc         *source.Source
}

func newJoinFixture(t *testing.T, cfg Config) *joinFixture {
	t.Helper()
	f := newFixture(t, cfg)
	cgd := buildComplaintsGD(3000, 21)
	ced, ctruth := makeIncomplete(cgd, "model", 0.10, 22)
	csrc := source.New("complaints", ced, source.Capabilities{})
	rng := rand.New(rand.NewSource(23))
	smpl := ced.Sample(450, rng)
	k, err := MineKnowledge("complaints", smpl,
		float64(ced.Len())/float64(smpl.Len()), smpl.IncompleteFraction(),
		KnowledgeConfig{AFD: afd.Config{MinSupport: 5}, Predictor: nbc.PredictorConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	f.m.Register(csrc, k)
	return &joinFixture{fixture: f, complaintsGD: cgd, complaintsED: ced, ctruth: ctruth, csrc: csrc}
}

func joinSpec(alpha float64, k int) JoinSpec {
	return JoinSpec{
		LeftSource:    "cars",
		RightSource:   "complaints",
		LeftQuery:     relation.NewQuery("cars", relation.Eq("model", relation.String("Z4"))),
		RightQuery:    relation.NewQuery("complaints", relation.Eq("component", relation.String("Electrical"))),
		LeftJoinAttr:  "model",
		RightJoinAttr: "model",
		Alpha:         alpha,
		K:             k,
	}
}

func TestJoinCertainAnswers(t *testing.T) {
	jf := newJoinFixture(t, Config{Alpha: 0, K: 10})
	res, err := jf.m.QueryJoinCtx(context.Background(), joinSpec(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("expected joined answers")
	}
	// Certain answers come first and satisfy both selections with matching
	// join values.
	sawCertain := false
	for _, a := range res.Answers {
		if !a.Certain {
			break
		}
		sawCertain = true
		lcol := jf.ed.Schema.MustIndex("model")
		rcol := jf.complaintsED.Schema.MustIndex("model")
		if !a.Left[lcol].Equal(a.Right[rcol]) {
			t.Fatalf("certain join with mismatched values: %v vs %v", a.Left[lcol], a.Right[rcol])
		}
		if a.Confidence != 1 {
			t.Fatalf("certain join confidence = %v", a.Confidence)
		}
	}
	if !sawCertain {
		t.Error("expected certain joined answers (complete × complete pair)")
	}
}

func TestJoinRespectsPairBudget(t *testing.T) {
	jf := newJoinFixture(t, Config{Alpha: 0, K: 0})
	res, err := jf.m.QueryJoinCtx(context.Background(), joinSpec(0.5, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) > 4 {
		t.Errorf("pairs issued = %d, budget 4", len(res.Pairs))
	}
}

func TestJoinAlphaZeroVsTwoRecall(t *testing.T) {
	// α=0 sticks to high-precision pairs; α=2 trades precision for recall
	// and must retrieve at least as many possible joins (Figure 13's shape).
	lowRes := runJoin(t, 0)
	highRes := runJoin(t, 2)
	lowPossible := countPossible(lowRes)
	highPossible := countPossible(highRes)
	if highPossible < lowPossible {
		t.Errorf("α=2 possible joins (%d) should be >= α=0 (%d)", highPossible, lowPossible)
	}
}

func runJoin(t *testing.T, alpha float64) *JoinResult {
	t.Helper()
	jf := newJoinFixture(t, Config{Alpha: 0, K: 10})
	res, err := jf.m.QueryJoinCtx(context.Background(), joinSpec(alpha, 10))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func countPossible(res *JoinResult) int {
	n := 0
	for _, a := range res.Answers {
		if !a.Certain {
			n++
		}
	}
	return n
}

func TestJoinPredictsMissingJoinValues(t *testing.T) {
	jf := newJoinFixture(t, Config{Alpha: 0, K: 0})
	res, err := jf.m.QueryJoinCtx(context.Background(), joinSpec(2, 20))
	if err != nil {
		t.Fatal(err)
	}
	rcol := jf.complaintsED.Schema.MustIndex("model")
	lcol := jf.ed.Schema.MustIndex("model")
	sawPredicted := false
	for _, a := range res.Answers {
		if a.Left[lcol].IsNull() || a.Right[rcol].IsNull() {
			sawPredicted = true
			if a.Certain {
				t.Fatal("null join value cannot be certain")
			}
			if a.Confidence >= 1 {
				t.Fatalf("predicted join confidence = %v, want < 1", a.Confidence)
			}
			if a.JoinValue.IsNull() {
				t.Fatal("JoinValue must carry the predicted value")
			}
		}
	}
	if !sawPredicted {
		t.Error("expected joins over predicted missing join values")
	}
}

func TestJoinAnswersSortedCertainFirst(t *testing.T) {
	jf := newJoinFixture(t, Config{Alpha: 0, K: 10})
	res, err := jf.m.QueryJoinCtx(context.Background(), joinSpec(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	seenPossible := false
	lastConf := 2.0
	for _, a := range res.Answers {
		if a.Certain && seenPossible {
			t.Fatal("certain answer after possible answers")
		}
		if !a.Certain {
			if !seenPossible {
				lastConf = 2.0
			}
			seenPossible = true
			if a.Confidence > lastConf {
				t.Fatal("possible joins not sorted by confidence")
			}
			lastConf = a.Confidence
		}
	}
	// Answers tied on certainty and confidence (every certain answer has
	// confidence 1) come out in ascending order of the two tuple keys
	// joined by \x1f.
	ties := 0
	for i := 1; i < len(res.Answers); i++ {
		a, b := res.Answers[i-1], res.Answers[i]
		if a.Certain != b.Certain || a.Confidence != b.Confidence {
			continue
		}
		ties++
		ka := a.Left.Key() + "\x1f" + a.Right.Key()
		kb := b.Left.Key() + "\x1f" + b.Right.Key()
		if ka >= kb {
			t.Fatalf("tied answers %d and %d out of key order:\n%q\n%q", i-1, i, ka, kb)
		}
	}
	if ties == 0 {
		t.Fatal("no tied answers: the tie-break order is untested")
	}
}

func TestJoinErrors(t *testing.T) {
	jf := newJoinFixture(t, DefaultConfig())
	bad := joinSpec(0, 10)
	bad.LeftSource = "nope"
	if _, err := jf.m.QueryJoinCtx(context.Background(), bad); err == nil {
		t.Error("unknown left source should error")
	}
	bad = joinSpec(0, 10)
	bad.RightSource = "nope"
	if _, err := jf.m.QueryJoinCtx(context.Background(), bad); err == nil {
		t.Error("unknown right source should error")
	}
	bad = joinSpec(0, 10)
	bad.LeftJoinAttr = "nope"
	if _, err := jf.m.QueryJoinCtx(context.Background(), bad); err == nil {
		t.Error("unknown join attribute should error")
	}
}

func TestEmpiricalDistribution(t *testing.T) {
	s := relation.MustSchema(relation.Attribute{Name: "m", Kind: relation.KindString})
	tuples := []relation.Tuple{
		{relation.String("a")}, {relation.String("a")}, {relation.String("b")}, {relation.Null()},
	}
	d := empiricalDistribution(s, tuples, "m")
	if d.Len() != 2 {
		t.Fatalf("distribution size = %d", d.Len())
	}
	if p := d.Prob(relation.String("a")); p != 2.0/3.0 {
		t.Errorf("P(a) = %v", p)
	}
	if got := empiricalDistribution(s, tuples, "nope"); got.Len() != 0 {
		t.Error("unknown attribute should yield empty distribution")
	}
}
