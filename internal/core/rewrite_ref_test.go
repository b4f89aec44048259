package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"qpiad/internal/afd"
	"qpiad/internal/nbc"
	"qpiad/internal/qcache"
	"qpiad/internal/relation"
)

// referenceGenerateRewrites is Step 2(a) as it was built before each
// family took one pass over the base rows: DistinctOn over the whole
// determining set, a Query.Key dedupe of every combination against q and
// everything emitted so far, and PredicateMass and Top per candidate.
// generateRewrites must match it candidate for candidate.
func referenceGenerateRewrites(k *Knowledge, q relation.Query, base []relation.Tuple, baseSchema *relation.Schema) []RewrittenQuery {
	seen := map[string]bool{q.Key(): true}
	var out []RewrittenQuery
	for _, target := range q.ConstrainedAttrs() {
		pred, ok := q.PredOn(target)
		if !ok {
			continue
		}
		p := k.Predictors[target]
		if p == nil || p.UsedFallback {
			continue
		}
		dtr := p.AFD.Determining
		baseRq := q.WithoutAttr(target)
		baseRq.Agg = nil
		for _, combo := range relation.DistinctOn(baseSchema, base, dtr) {
			rq := baseRq.Clone()
			evidence := make(map[string]relation.Value, len(dtr))
			for i, ax := range dtr {
				evidence[ax] = combo[i]
				if _, constrained := q.PredOn(ax); !constrained {
					rq.Preds = append(rq.Preds, relation.Eq(ax, combo[i]))
				}
			}
			if len(rq.Preds) == 0 || seen[rq.Key()] {
				continue
			}
			seen[rq.Key()] = true
			dist := p.PredictEvidence(evidence)
			mode, _, modeOK := dist.Top()
			out = append(out, RewrittenQuery{
				Query:             rq,
				TargetAttr:        target,
				TargetPred:        pred,
				Evidence:          evidence,
				Precision:         PredicateMass(dist, pred),
				ModeSatisfiesPred: modeOK && pred.Holds(mode),
				EstSel:            k.EstSel(rq),
				Explanation:       p.Explain(),
			})
		}
	}
	return out
}

// rewriteWorld is one seeded world for the rewrite-generation checks:
// knowledge trained on a sample, the source's rows to draw base sets from,
// and queries over them.
type rewriteWorld struct {
	k       *Knowledge
	schema  *relation.Schema
	rows    []relation.Tuple
	queries []relation.Query
}

var rewriteWorldSchema = relation.MustSchema(
	relation.Attribute{Name: "make", Kind: relation.KindString},
	relation.Attribute{Name: "model", Kind: relation.KindString},
	relation.Attribute{Name: "year", Kind: relation.KindInt},
	relation.Attribute{Name: "doors", Kind: relation.KindInt},
	relation.Attribute{Name: "mpg", Kind: relation.KindFloat},
	relation.Attribute{Name: "score", Kind: relation.KindFloat},
	relation.Attribute{Name: "used", Kind: relation.KindBool},
	relation.Attribute{Name: "color", Kind: relation.KindString},
)

// genRewriteWorld builds a world from seed. Every tuple has two or three
// nulls; the float columns hold ±0 and NaN among their values; extra joins
// the string pools. AFDs are drawn, not mined, so determining sets of one
// to three attributes come in every mix of constrained and unconstrained
// ones, and mode cycles through the four predictor modes by seed.
func genRewriteWorld(seed int64, extra string) *rewriteWorld {
	rng := rand.New(rand.NewSource(seed))
	makes := []string{"Audi", "BMW", "Honda", "", extra}
	colors := []string{"red", "blue", "ü€", extra}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, 2.5, 1e21, -3}
	s := rewriteWorldSchema
	row := func() relation.Tuple {
		mk := rng.Intn(len(makes))
		year := 1996 + rng.Intn(9)
		t := relation.Tuple{
			relation.String(makes[mk]),
			relation.String(makes[mk] + "-" + string(rune('A'+rng.Intn(3)))),
			relation.Int(int64(year)),
			relation.Int(int64(2 + 2*((mk+rng.Intn(2))%2))),
			relation.Float(floats[(mk+rng.Intn(2))%len(floats)]),
			relation.Float(floats[(year+rng.Intn(3))%len(floats)]),
			relation.Bool(rng.Intn(3) == 0),
			relation.String(colors[rng.Intn(len(colors))]),
		}
		nulls := 2 + rng.Intn(2)
		for _, c := range rng.Perm(len(t))[:nulls] {
			t[c] = relation.Null()
		}
		return t
	}
	sample := relation.New("w_sample", s)
	for i := 0; i < 150+rng.Intn(150); i++ {
		sample.MustInsert(row())
	}
	rows := make([]relation.Tuple, 300+rng.Intn(300))
	for i := range rows {
		rows[i] = row()
	}

	mode := nbc.Mode(seed & 3)
	names := s.Names()
	mined := &afd.Result{Relation: "w", N: sample.Len()}
	for _, dep := range names {
		for a := 0; a < 1+int(mode/2)*rng.Intn(3); a++ {
			var dtr []string
			for _, ax := range names {
				if ax != dep && rng.Intn(len(names)) < 2 {
					dtr = append(dtr, ax)
				}
			}
			if len(dtr) == 0 || len(dtr) > 3 {
				dtr = []string{names[(rng.Intn(len(names)-1)+1+indexOf(names, dep))%len(names)]}
			}
			mined.AFDs = append(mined.AFDs, afd.AFD{Determining: dtr, Dependent: dep, Confidence: 0.3 + 0.7*rng.Float64()})
		}
	}
	// ForDependent promises descending confidence within a dependent.
	for i := 1; i < len(mined.AFDs); i++ {
		for j := i; j > 0 && mined.AFDs[j].Dependent == mined.AFDs[j-1].Dependent && mined.AFDs[j].Confidence > mined.AFDs[j-1].Confidence; j-- {
			mined.AFDs[j], mined.AFDs[j-1] = mined.AFDs[j-1], mined.AFDs[j]
		}
	}
	k := &Knowledge{
		Source: "w", Sample: sample, AFDs: mined,
		Ratio:      float64(len(rows)) / float64(sample.Len()),
		PerInc:     sample.IncompleteFraction(),
		Predictors: map[string]*nbc.Predictor{},
		predCache:  qcache.New(qcache.Config{Capacity: 4096}),
	}
	for _, dep := range names {
		if p, err := nbc.TrainPredictor(sample, dep, mined, nbc.PredictorConfig{Mode: mode}); err == nil {
			k.Predictors[dep] = p
		}
	}

	w := &rewriteWorld{k: k, schema: s, rows: rows}
	for i := 0; i < 12; i++ {
		src := rows[rng.Intn(len(rows))]
		q := relation.Query{Relation: "w"}
		for j := 0; j < 1+rng.Intn(3); j++ {
			c := rng.Intn(len(names))
			v := src[c]
			switch {
			case v.IsNull():
				v = relation.Float(floats[rng.Intn(len(floats))])
			case v.Kind() == relation.KindInt && rng.Intn(2) == 0:
				lo, hi := v.IntVal()-int64(rng.Intn(3)), v.IntVal()+int64(rng.Intn(3))
				q.Preds = append(q.Preds, relation.Between(names[c], relation.Int(lo), relation.Int(hi)))
				continue
			case v.Kind() == relation.KindFloat && rng.Intn(2) == 0:
				q.Preds = append(q.Preds, relation.Predicate{Attr: names[c], Op: relation.OpLe, Value: v})
				continue
			}
			q.Preds = append(q.Preds, relation.Eq(names[c], v))
		}
		w.queries = append(w.queries, q)
	}
	return w
}

func indexOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

// baseSet is one base set rewrites are generated from.
type baseSet struct {
	name   string
	schema *relation.Schema
	rows   []relation.Tuple
}

// bases returns the base sets q is checked on: q's answers among the rows,
// every row, and the rows projected onto a narrower schema without one
// attribute, as a correlated source's base set would be.
func (w *rewriteWorld) bases(q relation.Query, drop int) []baseSet {
	var answers []relation.Tuple
	for _, t := range w.rows {
		if q.Matches(w.schema, t) {
			answers = append(answers, t)
		}
	}
	names := w.schema.Names()
	keep := append(append([]string(nil), names[:drop]...), names[drop+1:]...)
	narrow, ns, err := relation.ProjectTuples(w.schema, w.rows, keep)
	if err != nil {
		panic(err)
	}
	return []baseSet{
		{"answers", w.schema, answers},
		{"all rows", w.schema, w.rows},
		{"without " + names[drop], ns, narrow},
	}
}

// checkRewritesMatchReference compares generateRewrites with the reference
// on every query and base set of the world: each candidate field by field,
// probabilities and estimates by their bits, then F, Recall and order
// after ScoreAndSelect under each ordering. It returns the number of
// candidates compared.
func checkRewritesMatchReference(t *testing.T, w *rewriteWorld, drop int) int {
	t.Helper()
	// The reference reads no prediction memo, so a memo the new path filled
	// wrongly cannot hide in both.
	refK := *w.k
	refK.predCache = nil
	compared := 0
	for _, q := range w.queries {
		for _, b := range w.bases(q, drop) {
			// Twice: the second pass reads predictions from the memo.
			for pass := 0; pass < 2; pass++ {
				want := referenceGenerateRewrites(&refK, q, b.rows, b.schema)
				got := GenerateRewrites(w.k, q, b.rows, b.schema)
				where := func() string { return q.String() + " over " + b.name }
				if len(got) != len(want) {
					t.Fatalf("%s: %d candidates, reference %d", where(), len(got), len(want))
				}
				for i := range got {
					g, r := got[i], want[i]
					switch {
					case g.Query.Key() != r.Query.Key() || !reflect.DeepEqual(g.Query, r.Query):
						t.Fatalf("%s: candidate %d is %v, reference %v", where(), i, g.Query, r.Query)
					case g.TargetAttr != r.TargetAttr || g.TargetPred != r.TargetPred || g.Explanation != r.Explanation:
						t.Fatalf("%s: candidate %d target %s/%v/%q, reference %s/%v/%q", where(), i,
							g.TargetAttr, g.TargetPred, g.Explanation, r.TargetAttr, r.TargetPred, r.Explanation)
					case !reflect.DeepEqual(g.Evidence, r.Evidence):
						t.Fatalf("%s: candidate %d evidence %v, reference %v", where(), i, g.Evidence, r.Evidence)
					case math.Float64bits(g.Precision) != math.Float64bits(r.Precision):
						t.Fatalf("%s: candidate %d precision %v, reference %v", where(), i, g.Precision, r.Precision)
					case math.Float64bits(g.EstSel) != math.Float64bits(r.EstSel):
						t.Fatalf("%s: candidate %d EstSel %v, reference %v", where(), i, g.EstSel, r.EstSel)
					case g.ModeSatisfiesPred != r.ModeSatisfiesPred:
						t.Fatalf("%s: candidate %d ModeSatisfiesPred %v, reference %v", where(), i, g.ModeSatisfiesPred, r.ModeSatisfiesPred)
					}
				}
				compared += len(got)
				for _, sc := range []struct {
					alpha float64
					k     int
					ord   Ordering
				}{{0, 10, OrderFMeasure}, {0.5, 0, OrderFMeasure}, {1, 3, OrderSelectivity}, {0, 4, OrderArbitrary}} {
					gs := ScoreAndSelect(append([]RewrittenQuery(nil), got...), sc.alpha, sc.k, sc.ord)
					ws := ScoreAndSelect(append([]RewrittenQuery(nil), want...), sc.alpha, sc.k, sc.ord)
					if len(gs) != len(ws) {
						t.Fatalf("%s: %+v selects %d, reference %d", where(), sc, len(gs), len(ws))
					}
					for i := range gs {
						if gs[i].Query.Key() != ws[i].Query.Key() ||
							math.Float64bits(gs[i].F) != math.Float64bits(ws[i].F) ||
							math.Float64bits(gs[i].Recall) != math.Float64bits(ws[i].Recall) {
							t.Fatalf("%s: %+v selection %d is %v (F %v, recall %v), reference %v (F %v, recall %v)",
								where(), sc, i, gs[i].Query, gs[i].F, gs[i].Recall, ws[i].Query, ws[i].F, ws[i].Recall)
						}
					}
				}
			}
		}
	}
	return compared
}

// TestGenerateRewritesMatchesReference runs the comparison over seeded
// worlds in all four predictor modes.
func TestGenerateRewritesMatchesReference(t *testing.T) {
	compared := 0
	for seed := int64(1); seed <= 24; seed++ {
		w := genRewriteWorld(seed, "Ford")
		compared += checkRewritesMatchReference(t, w, int(seed)%w.schema.Len())
	}
	t.Logf("%d candidates compared", compared)
	if compared < 1000 {
		t.Fatalf("only %d candidates compared; the worlds no longer exercise rewrite generation", compared)
	}
}

// FuzzGenerateRewrites runs the comparison over worlds the fuzzer seeds,
// with its string in the value pools. A string holding \x1e or \x1f is
// cut at that byte: there the reference's joined keys can collide, which
// TestGenerateRewritesSeparatorStrings pins.
func FuzzGenerateRewrites(f *testing.F) {
	f.Add(int64(1), "Ford", uint8(0))
	f.Add(int64(6), "", uint8(3))
	f.Add(int64(-7), "NaN", uint8(5))
	f.Add(int64(1<<40), "ü\x00", uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, extra string, drop uint8) {
		if i := strings.IndexAny(extra, "\x1e\x1f"); i >= 0 {
			extra = extra[:i]
		}
		w := genRewriteWorld(seed, extra)
		checkRewritesMatchReference(t, w, int(drop)%w.schema.Len())
	})
}

// TestGenerateRewritesSeparatorStrings pins the one input where the new
// path and the reference differ. Two combinations of string values that
// hold the key separators can join into one Query.Key although their
// values differ: the reference dropped the second as a duplicate, while
// generateRewrites compares values and keeps both. Both rewrites are real
// and distinct queries, each estimated from its own sample count. They
// share a key, so the ranking cannot order them by it (they stay in
// generation order).
func TestGenerateRewritesSeparatorStrings(t *testing.T) {
	s := relation.MustSchema(
		relation.Attribute{Name: "a", Kind: relation.KindString},
		relation.Attribute{Name: "b", Kind: relation.KindString},
		relation.Attribute{Name: "c", Kind: relation.KindString},
	)
	const sep = "\x1e\x00\x1fc\x1e=\x1es" // the tail of b's encoding and the head of c's
	rows := []relation.Tuple{
		{relation.String("x"), relation.String("p"), relation.String("q" + sep + "r")},
		{relation.String("x"), relation.String("p" + sep + "q"), relation.String("r")},
	}
	sample := relation.New("r_sample", s)
	for _, i := range []int{0, 0, 0, 1} {
		sample.MustInsert(rows[i])
	}
	mined := &afd.Result{Relation: "r", AFDs: []afd.AFD{{Determining: []string{"b", "c"}, Dependent: "a", Confidence: 0.9}}}
	p, err := nbc.TrainPredictor(sample, "a", mined, nbc.PredictorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	k := &Knowledge{Source: "r", Sample: sample, Ratio: 1, PerInc: 0.5, AFDs: mined, Predictors: map[string]*nbc.Predictor{"a": p}}
	q := relation.NewQuery("r", relation.Eq("a", relation.String("x")))

	if ref := referenceGenerateRewrites(k, q, rows, s); len(ref) != 1 {
		t.Fatalf("reference: %d candidates, want 1 (the second's key collides)", len(ref))
	}
	got := GenerateRewrites(k, q, rows, s)
	if len(got) != 2 {
		t.Fatalf("%d candidates, want 2", len(got))
	}
	if reflect.DeepEqual(got[0].Query, got[1].Query) || got[0].Query.Key() != got[1].Query.Key() {
		t.Fatalf("want two distinct queries under one key: %v, %v", got[0].Query, got[1].Query)
	}
	// Sample counts 3 and 1 at ratio 1 and PerInc 0.5.
	if got[0].EstSel != 1.5 || got[1].EstSel != 0.5 {
		t.Fatalf("EstSel %v and %v, want 1.5 and 0.5: each rewrite's own sample count", got[0].EstSel, got[1].EstSel)
	}
	chosen := ScoreAndSelect(got, 0, 0, OrderArbitrary)
	if !reflect.DeepEqual(chosen[0].Query, got[0].Query) {
		t.Fatalf("equal keys must keep generation order")
	}
}

// TestPredictionMemoAlignsWithClasses checks the invariant the class mask
// relies on for distributions that come back from the prediction memo:
// they line up position for position with the predictor's class list.
func TestPredictionMemoAlignsWithClasses(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		w := genRewriteWorld(seed, "Ford")
		for target, p := range w.k.Predictors {
			classes := p.Classes()
			for i, t0 := range w.rows[:20] {
				ev := map[string]relation.Value{}
				for j, name := range w.schema.Names() {
					if name != target {
						ev[name] = t0[j]
					}
				}
				key := target + "\x1f" + t0.Key()
				for pass := 0; pass < 2; pass++ {
					d := w.k.predictEvidence(p, key, ev)
					if d.Len() != len(classes) {
						t.Fatalf("seed %d %s row %d pass %d: %d values, %d classes", seed, target, i, pass, d.Len(), len(classes))
					}
					for c := range classes {
						if d.Value(c) != classes[c] {
							t.Fatalf("seed %d %s row %d pass %d: value %d is %v, class %v", seed, target, i, pass, c, d.Value(c), classes[c])
						}
					}
				}
			}
		}
		if st := w.k.PredictionMemoStats(); st.Hits == 0 {
			t.Fatalf("seed %d: the memo served no prediction", seed)
		}
	}
}

// referenceScoreAndSelect is ScoreAndSelect as it was before it sorted
// positions: the same two stable sorts, run over the candidates themselves
// through keyedSorter, which swaps whole RewrittenQuery values and their
// keys in lockstep.
func referenceScoreAndSelect(cands []RewrittenQuery, alpha float64, k int, ord Ordering) []RewrittenQuery {
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
	keys := make([]string, len(cands))
	for i := range cands {
		keys[i] = cands[i].Query.Key()
	}
	sort.Stable(&keyedSorter[RewrittenQuery]{cands, keys, func(i, j int) bool {
		switch ord {
		case OrderSelectivity:
			if cands[i].EstSel != cands[j].EstSel {
				return cands[i].EstSel > cands[j].EstSel
			}
		case OrderArbitrary:
			return keys[i] < keys[j]
		default:
			if cands[i].F != cands[j].F {
				return cands[i].F > cands[j].F
			}
		}
		if cands[i].Precision != cands[j].Precision {
			return cands[i].Precision > cands[j].Precision
		}
		return keys[i] < keys[j]
	}})
	if k > 0 && len(cands) > k {
		cands, keys = cands[:k], keys[:k]
	}
	if ord != OrderArbitrary {
		sort.Stable(&keyedSorter[RewrittenQuery]{cands, keys, func(i, j int) bool {
			if cands[i].Precision != cands[j].Precision {
				return cands[i].Precision > cands[j].Precision
			}
			return keys[i] < keys[j]
		}})
	}
	return cands
}

// keyedSorter sorts items and their precomputed tie-break keys in
// lockstep, keeping the key slice aligned across sort passes.
type keyedSorter[T any] struct {
	items []T
	keys  []string
	less  func(i, j int) bool
}

func (s *keyedSorter[T]) Len() int           { return len(s.items) }
func (s *keyedSorter[T]) Less(i, j int) bool { return s.less(i, j) }
func (s *keyedSorter[T]) Swap(i, j int) {
	s.items[i], s.items[j] = s.items[j], s.items[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// sameRanking reports where two candidate lists first differ by query key,
// explanation or the bits of F or Recall, or -1.
func sameRanking(got, want []RewrittenQuery) int {
	for i := range got {
		if got[i].Query.Key() != want[i].Query.Key() || got[i].Explanation != want[i].Explanation ||
			math.Float64bits(got[i].F) != math.Float64bits(want[i].F) ||
			math.Float64bits(got[i].Recall) != math.Float64bits(want[i].Recall) {
			return i
		}
	}
	return -1
}

// TestScoreAndSelectMatchesReference ranks the candidates of the seeded
// worlds both ways, under every ordering and K ∈ {0, 1, 10}, and once more
// with every candidate doubled, the copies told apart by their
// explanation, so that equal keys leave the order to the sorts' stability.
// The selection and the whole reordered input must match the reference,
// F and Recall to the bit.
func TestScoreAndSelectMatchesReference(t *testing.T) {
	ranked := 0
	for seed := int64(1); seed <= 24; seed++ {
		w := genRewriteWorld(seed, "Ford")
		for _, q := range w.queries {
			for _, b := range w.bases(q, int(seed)%w.schema.Len()) {
				cands := GenerateRewrites(w.k, q, b.rows, b.schema)
				doubled := append(slices.Clone(cands), cands...)
				for i := len(cands); i < len(doubled); i++ {
					doubled[i].Explanation += " (copy)"
				}
				for _, in := range [][]RewrittenQuery{cands, doubled} {
					for _, ord := range []Ordering{OrderFMeasure, OrderSelectivity, OrderArbitrary} {
						for _, k := range []int{0, 1, 10} {
							alpha := float64(k%3) / 2
							got, want := slices.Clone(in), slices.Clone(in)
							gs := ScoreAndSelect(got, alpha, k, ord)
							ws := referenceScoreAndSelect(want, alpha, k, ord)
							if len(gs) != len(ws) {
								t.Fatalf("seed %d %v over %s, ordering %v, K %d: %d selected, reference %d", seed, q, b.name, ord, k, len(gs), len(ws))
							}
							if i := sameRanking(gs, ws); i >= 0 {
								t.Fatalf("seed %d %v over %s, ordering %v, K %d: selection %d is %v (F %v, recall %v), reference %v (F %v, recall %v)",
									seed, q, b.name, ord, k, i, gs[i].Query, gs[i].F, gs[i].Recall, ws[i].Query, ws[i].F, ws[i].Recall)
							}
							if i := sameRanking(got, want); i >= 0 {
								t.Fatalf("seed %d %v over %s, ordering %v, K %d: input left with %v at %d, reference %v", seed, q, b.name, ord, k, got[i].Query, i, want[i].Query)
							}
							ranked += len(in)
						}
					}
				}
			}
		}
	}
	t.Logf("%d candidates ranked", ranked)
	if ranked < 10000 {
		t.Fatalf("only %d candidates ranked; the worlds no longer exercise the ranking", ranked)
	}
}

// TestSortByPositionMatchesKeyedSorter ranks join answers with many ties
// (certainty, confidence and tie-break key drawn from small pools, NaN
// among the confidences) both ways, with the joins' comparator.
func TestSortByPositionMatchesKeyedSorter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	confs := []float64{1, 0.5, 0.5, 0.25, math.NaN(), 0}
	for _, n := range []int{0, 1, 2, 19, 20, 21, 41, 300} {
		for rep := 0; rep < 20; rep++ {
			answers := make([]JoinAnswer, n)
			keys := make([]string, n)
			for i := range answers {
				answers[i] = JoinAnswer{JoinValue: relation.Int(int64(i)), Certain: rng.Intn(3) == 0, Confidence: confs[rng.Intn(len(confs))]}
				keys[i] = string(rune('a' + rng.Intn(4)))
			}
			got, want, wantKeys := slices.Clone(answers), slices.Clone(answers), slices.Clone(keys)
			sortByPosition(got, func(i, j int32) int {
				ai, aj := &got[i], &got[j]
				if ai.Certain != aj.Certain {
					return ahead(ai.Certain)
				}
				if ai.Confidence != aj.Confidence {
					return ahead(ai.Confidence > aj.Confidence)
				}
				return strings.Compare(keys[i], keys[j])
			})
			sort.Stable(&keyedSorter[JoinAnswer]{want, wantKeys, func(i, j int) bool {
				ai, aj := &want[i], &want[j]
				if ai.Certain != aj.Certain {
					return ai.Certain
				}
				if ai.Confidence != aj.Confidence {
					return ai.Confidence > aj.Confidence
				}
				return wantKeys[i] < wantKeys[j]
			}})
			for i := range got {
				if got[i].JoinValue != want[i].JoinValue {
					t.Fatalf("n %d rep %d: position %d holds answer %v, reference %v", n, rep, i, got[i].JoinValue, want[i].JoinValue)
				}
			}
		}
	}
}
