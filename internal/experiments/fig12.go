package experiments

import (
	"context"
	"fmt"

	"qpiad/internal/core"
	"qpiad/internal/eval"
	"qpiad/internal/relation"
)

func init() {
	register(Experiment{
		ID:    "fig12",
		Title: "Aggregate query accuracy with and without missing-value prediction",
		Run:   Figure12,
	})
}

// aggQuerySet builds the paper's Figure 12 workload: for attribute subsets
// of growing size, bind each distinct value combination found in the
// training sample into a conjunctive selection. maxPerSubset and maxTotal
// bound the workload.
func aggQuerySet(w *eval.World, attrs []string, maxSubset, maxPerSubset, maxTotal int) []relation.Query {
	var queries []relation.Query
	var subsets [][]string
	var build func(start int, cur []string)
	build = func(start int, cur []string) {
		if len(cur) > 0 && len(cur) <= maxSubset {
			subsets = append(subsets, append([]string(nil), cur...))
		}
		if len(cur) >= maxSubset {
			return
		}
		for i := start; i < len(attrs); i++ {
			build(i+1, append(cur, attrs[i]))
		}
	}
	build(0, nil)
	for _, sub := range subsets {
		combos := relation.DistinctOn(w.Train.Schema, w.Train.Tuples(), sub)
		if len(combos) > maxPerSubset {
			combos = combos[:maxPerSubset]
		}
		for _, combo := range combos {
			q := relation.NewQuery(w.Name)
			for i, a := range sub {
				q = q.With(relation.Eq(a, combo[i]))
			}
			queries = append(queries, q)
			if len(queries) >= maxTotal {
				return queries
			}
		}
	}
	return queries
}

// Figure12 measures, over a large set of aggregate queries, the fraction
// achieving each accuracy level with and without missing-value prediction.
// Sub-figure (a) is Sum(Price), (b) is Count(*). Truth comes from the
// complete (oracular) versions of the test tuples.
func Figure12(s Scale) (*Report, error) {
	w, err := carsWorld(s, "", core.Config{Alpha: 1, K: 0}, 0)
	if err != nil {
		return nil, err
	}
	// Oracle: the complete GD versions of the test partition's tuples.
	oracle := relation.New("oracle", w.GD.Schema)
	idCol := w.GD.Schema.MustIndex("id")
	gdByID := make(map[int64]relation.Tuple, w.GD.Len())
	for _, t := range w.GD.Tuples() {
		gdByID[t[idCol].IntVal()] = t
	}
	for _, t := range w.Test.Tuples() {
		oracle.MustInsert(gdByID[t[idCol].IntVal()].Clone())
	}

	attrs := []string{"year", "make", "model", "body_style", "certified"}
	queries := aggQuerySet(w, attrs, 3, 8, 150)

	aggs := []relation.Aggregate{
		{Func: relation.AggSum, Attr: "price"},
		{Func: relation.AggCount},
	}
	thresholds := []float64{0.90, 0.925, 0.95, 0.975, 1.0}

	rep := &Report{ID: "fig12", Title: "Accuracy of aggregate queries with and without prediction"}
	for _, agg := range aggs {
		var accNo, accPred []float64
		for _, q := range queries {
			aq := q.Clone()
			aq.Agg = &relation.Aggregate{Func: agg.Func, Attr: agg.Attr}
			truthRes, err := oracle.Aggregate(aq)
			if err != nil {
				return nil, err
			}
			if truthRes.Value == 0 {
				continue
			}
			noPred, err := w.Med.QueryAggregateWithCtx(context.Background(), w.Med.Config(), "cars", aq, core.AggOptions{})
			if err != nil {
				return nil, err
			}
			withPred, err := w.Med.QueryAggregateWithCtx(context.Background(), w.Med.Config(), "cars", aq, core.AggOptions{
				IncludePossible: true,
				PredictMissing:  true,
				Rule:            core.RuleArgmax,
			})
			if err != nil {
				return nil, err
			}
			accNo = append(accNo, eval.AggAccuracy(noPred.Total, truthRes.Value))
			accPred = append(accPred, eval.AggAccuracy(withPred.Total, truthRes.Value))
		}
		if len(accNo) == 0 {
			return nil, fmt.Errorf("fig12: no usable %s queries", agg)
		}
		noCurve := eval.FractionAtOrAbove(accNo, thresholds)
		predCurve := eval.FractionAtOrAbove(accPred, thresholds)
		mkSeries := func(name string, ys []float64) Series {
			sr := Series{Name: name, XLabel: "accuracy", YLabel: "fraction of queries"}
			sr.X = append(sr.X, thresholds...)
			sr.Y = append(sr.Y, ys...)
			return sr
		}
		rep.Series = append(rep.Series,
			mkSeries(agg.String()+" No Prediction", noCurve),
			mkSeries(agg.String()+" Prediction", predCurve),
		)
		rep.AddNote("%s: %d queries; fraction at 100%% accuracy: no-prediction %.3f vs prediction %.3f",
			agg, len(accNo), noCurve[len(noCurve)-1], predCurve[len(predCurve)-1])
	}
	rep.AddNote("expected shape: the prediction curve dominates; ≈10 points more queries reach 100%% accuracy")
	return rep, nil
}
