package nbc

import (
	"math"
	"math/rand"
	"testing"

	"qpiad/internal/afd"
	"qpiad/internal/relation"
)

// floatTargetRel builds a sample whose float target holds 1, ±0 and NaNs
// with two payloads, predicted from a string, an int and a float feature
// that also hold nulls, ±0 and NaN.
func floatTargetRel(n int, seed int64) *relation.Relation {
	s := relation.MustSchema(
		relation.Attribute{Name: "a", Kind: relation.KindString},
		relation.Attribute{Name: "b", Kind: relation.KindInt},
		relation.Attribute{Name: "c", Kind: relation.KindFloat},
		relation.Attribute{Name: "t", Kind: relation.KindFloat},
	)
	targets := []float64{1, 0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001), 2.5}
	feats := []float64{0, math.Copysign(0, -1), math.NaN(), 1}
	rng := rand.New(rand.NewSource(seed))
	r := relation.New("f", s)
	for i := 0; i < n; i++ {
		ti := rng.Intn(len(targets))
		tp := relation.Tuple{
			relation.String([]string{"x", "y", "z"}[(ti+rng.Intn(2))%3]),
			relation.Int(int64(ti % 3)),
			relation.Float(feats[(ti+rng.Intn(3))%len(feats)]),
			relation.Float(targets[ti]),
		}
		if rng.Intn(5) == 0 {
			tp[rng.Intn(len(tp))] = relation.Null()
		}
		r.MustInsert(tp)
	}
	return r
}

// predictorsInAllModes trains a predictor for t in every mode, over AFDs
// chosen so that the ensemble combines three classifiers.
func predictorsInAllModes(t *testing.T, r *relation.Relation) map[Mode]*Predictor {
	t.Helper()
	mined := &afd.Result{Relation: "f", N: r.Len(), AFDs: []afd.AFD{
		{Determining: []string{"a", "b"}, Dependent: "t", Confidence: 0.9},
		{Determining: []string{"c"}, Dependent: "t", Confidence: 0.7},
		{Determining: []string{"a"}, Dependent: "t", Confidence: 0.6},
	}}
	out := map[Mode]*Predictor{}
	for _, mode := range []Mode{ModeHybridOneAFD, ModeBestAFD, ModeEnsemble, ModeAllAttributes} {
		p, err := TrainPredictor(r, "t", mined, PredictorConfig{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		out[mode] = p
	}
	if n := len(out[ModeEnsemble].classifiers); n != 3 {
		t.Fatalf("ensemble has %d classifiers, want 3", n)
	}
	return out
}

// evidenceSets returns evidence maps covering full, partial, empty, null,
// unseen and NaN/±0 evidence.
func evidenceSets() []map[string]relation.Value {
	var out []map[string]relation.Value
	as := []relation.Value{relation.String("x"), relation.String("z"), relation.String("unseen"), relation.Null()}
	bs := []relation.Value{relation.Int(0), relation.Int(2), relation.Int(9), relation.Null()}
	cs := []relation.Value{relation.Float(0), relation.Float(math.Copysign(0, -1)), relation.Float(math.NaN()), relation.Float(1), relation.Null()}
	for _, a := range as {
		for _, b := range bs {
			for _, c := range cs {
				out = append(out, map[string]relation.Value{"a": a, "b": b, "c": c})
			}
		}
	}
	return append(out, map[string]relation.Value{}, map[string]relation.Value{"a": relation.String("x")})
}

// Every distribution a predictor returns lists its classes position for
// position, in every mode: rewrite generation evaluates a predicate once
// per class and reads each prediction by position.
func TestPredictionsAlignWithClasses(t *testing.T) {
	r := floatTargetRel(400, 3)
	for mode, p := range predictorsInAllModes(t, r) {
		classes := p.Classes()
		if len(classes) != 5 { // 1, 0, -0, one NaN, 2.5
			t.Fatalf("%v: %d classes %v, want 5", mode, len(classes), classes)
		}
		for _, ev := range evidenceSets() {
			for _, d := range []Distribution{p.PredictEvidence(ev), p.Predict(r.Schema, r.Tuple(0))} {
				if d.Len() != len(classes) {
					t.Fatalf("%v %v: %d values, %d classes", mode, ev, d.Len(), len(classes))
				}
				for i, c := range classes {
					if d.Value(i) != c {
						t.Fatalf("%v %v: value %d is %v, class %v", mode, ev, i, d.Value(i), c)
					}
				}
			}
		}
	}
}

// refClassifierPredict is Classifier.PredictEvidence as it was built before
// predictions shared the class index: separate weight and blend slices and
// a freshly indexed distribution after each normalization.
func refClassifierPredict(c *Classifier, evidence map[string]relation.Value) Distribution {
	logw := make([]float64, len(c.classes))
	for ci := range c.classes {
		logw[ci] = math.Log(c.prior(ci))
	}
	allPresent := len(c.Features) > 0
	var jkey []byte
	for fi, f := range c.Features {
		v, ok := evidence[f]
		if !ok || v.IsNull() {
			allPresent = false
			continue
		}
		if fi > 0 {
			jkey = append(jkey, '\x1f')
		}
		row := c.counts[fi][v.Key()]
		jkey = v.AppendKey(jkey)
		for ci := range c.classes {
			logw[ci] += math.Log(c.cond(fi, row, ci))
		}
	}
	maxw := math.Inf(-1)
	for _, w := range logw {
		if w > maxw {
			maxw = w
		}
	}
	weights := make([]float64, len(logw))
	for i, w := range logw {
		weights[i] = math.Exp(w - maxw)
	}
	nbcDist := newDistribution(c.classes, weights)
	row := c.joint[string(jkey)]
	if c.jointOff || !allPresent || row == nil {
		return nbcDist
	}
	n := 0
	for _, cnt := range row {
		n += cnt
	}
	if n == 0 {
		return nbcDist
	}
	lambda := float64(n) / (float64(n) + c.jointM0)
	blended := make([]float64, len(c.classes))
	for ci := range c.classes {
		blended[ci] = lambda*(float64(row[ci])/float64(n)) + (1-lambda)*nbcDist.ProbAt(ci)
	}
	return newDistribution(c.classes, blended)
}

// refPredictorPredict is Predictor.PredictEvidence as it was built before:
// the ensemble merged its classifiers' values by key.
func refPredictorPredict(p *Predictor, evidence map[string]relation.Value) Distribution {
	if len(p.classifiers) == 1 {
		return refClassifierPredict(p.classifiers[0], evidence)
	}
	merged := map[string]float64{}
	var order []relation.Value
	for i, cl := range p.classifiers {
		d := refClassifierPredict(cl, evidence)
		for j := 0; j < d.Len(); j++ {
			k := d.Value(j).Key()
			if _, ok := merged[k]; !ok {
				order = append(order, d.Value(j))
			}
			merged[k] += p.weights[i] * d.ProbAt(j)
		}
	}
	weights := make([]float64, len(order))
	for i, v := range order {
		weights[i] = merged[v.Key()]
	}
	return newDistribution(order, weights)
}

// Sharing the class index and normalizing in place must not move a bit of
// any probability, in any mode.
func TestPredictionsMatchReferenceArithmetic(t *testing.T) {
	for _, seed := range []int64{3, 4, 5} {
		r := floatTargetRel(300, seed)
		for mode, p := range predictorsInAllModes(t, r) {
			for _, ev := range evidenceSets() {
				got, want := p.PredictEvidence(ev), refPredictorPredict(p, ev)
				if got.Len() != want.Len() {
					t.Fatalf("seed %d %v %v: %d values, reference %d", seed, mode, ev, got.Len(), want.Len())
				}
				for i := 0; i < got.Len(); i++ {
					if got.Value(i) != want.Value(i) || math.Float64bits(got.ProbAt(i)) != math.Float64bits(want.ProbAt(i)) {
						t.Fatalf("seed %d %v %v: entry %d is %v=%v, reference %v=%v", seed, mode, ev, i,
							got.Value(i), got.ProbAt(i), want.Value(i), want.ProbAt(i))
					}
				}
			}
		}
	}
}

// Prob finds a value by its canonical key, in constant time: absent values
// read 0, Int(1) and Float(1) are different values, every NaN reads the one
// NaN entry, and a key repeated in NewDistribution reads its last
// occurrence. The contract holds alike for distributions that index their
// own values and for predictions sharing a classifier's index.
func TestDistributionProbContract(t *testing.T) {
	nan2 := relation.Float(math.Float64frombits(0x7ff8000000000001))
	d := NewDistribution(
		[]relation.Value{relation.Int(1), relation.Float(1), relation.Float(math.NaN()), relation.String("a"), relation.String("a")},
		[]float64{1, 2, 3, 1, 3},
	)
	for _, c := range []struct {
		v    relation.Value
		want float64
	}{
		{relation.Int(1), 0.1},
		{relation.Float(1), 0.2},
		{nan2, 0.3},
		{relation.String("a"), 0.3},
		{relation.String("b"), 0},
		{relation.Int(2), 0},
		{relation.Null(), 0},
	} {
		if got := d.Prob(c.v); got != c.want {
			t.Errorf("NewDistribution: Prob(%#v) = %v, want %v", c.v, got, c.want)
		}
	}

	p := predictorsInAllModes(t, floatTargetRel(400, 3))[ModeHybridOneAFD]
	pd := p.PredictEvidence(map[string]relation.Value{"a": relation.String("x"), "b": relation.Int(0)})
	for i := 0; i < pd.Len(); i++ {
		if got := pd.Prob(pd.Value(i)); got != pd.ProbAt(i) {
			t.Errorf("prediction: Prob(%#v) = %v, ProbAt(%d) = %v", pd.Value(i), got, i, pd.ProbAt(i))
		}
	}
	if got, want := pd.Prob(nan2), pd.Prob(relation.Float(math.NaN())); got != want || got == 0 {
		t.Errorf("prediction: NaN payloads read %v and %v, want one nonzero entry", got, want)
	}
	if got := pd.Prob(relation.Int(1)); got != 0 || pd.Prob(relation.Float(1)) == 0 {
		t.Errorf("prediction over float classes: Prob(Int(1)) = %v, Prob(Float(1)) = %v", got, pd.Prob(relation.Float(1)))
	}
	if got := pd.Prob(relation.Float(7)); got != 0 {
		t.Errorf("prediction: absent class reads %v", got)
	}
}
