package experiments

import (
	"context"
	"fmt"

	"qpiad/internal/baseline"
	"qpiad/internal/core"
	"qpiad/internal/eval"
	"qpiad/internal/relation"
)

func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "Avg accumulated precision after Kth tuple, 10 queries (BodyStyle & Mileage)",
		Run:   Figure6,
	})
	register(Experiment{
		ID:    "fig7",
		Title: "Avg accumulated precision after Kth tuple, 10 queries (Price)",
		Run:   Figure7,
	})
}

// Figure6 averages the accumulated-precision-after-Kth-tuple curves of ten
// single-attribute queries on body_style and mileage, comparing QPIAD with
// AllReturned (the paper's Figure 6, K up to 200).
func Figure6(s Scale) (*Report, error) {
	w, err := carsWorld(s, "", core.Config{Alpha: 0, K: 0}, 0)
	if err != nil {
		return nil, err
	}
	var queries []relation.Query
	for _, v := range frequentValues(w.GD, "body_style", 5, 50) {
		queries = append(queries, relation.NewQuery("cars", relation.Eq("body_style", v)))
	}
	for _, v := range frequentValues(w.GD, "mileage", 5, 50) {
		queries = append(queries, relation.NewQuery("cars", relation.Eq("mileage", v)))
	}
	return accumulatedPrecisionReport(w, queries, "fig6",
		"Avg. of 10 Queries (Body Style and Mileage)", 200)
}

// Figure7 is the price-query counterpart (the paper's Figure 7).
// Incompleteness is concentrated on the price attribute: the synthetic
// price domain (90 models × 10 years) is so wide that the random-attribute
// protocol leaves almost no hidden prices per query value.
func Figure7(s Scale) (*Report, error) {
	w, err := carsWorld(s, "price", core.Config{Alpha: 0, K: 0}, 1)
	if err != nil {
		return nil, err
	}
	var queries []relation.Query
	for _, v := range frequentValues(w.GD, "price", 10, 30) {
		queries = append(queries, relation.NewQuery("cars", relation.Eq("price", v)))
	}
	return accumulatedPrecisionReport(w, queries, "fig7", "Avg. of 10 Queries (Price)", 200)
}

// accumulatedPrecisionReport runs both systems on each query and averages
// the per-query accumulated precision curves.
func accumulatedPrecisionReport(w *eval.World, queries []relation.Query, id, title string, upto int) (*Report, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("%s: no queries with sufficient support", id)
	}
	var qpiadCurves, arCurves [][]float64
	used := 0
	for _, q := range queries {
		if w.RelevantPossibleCount(q) == 0 {
			continue
		}
		used++
		rs, err := w.Med.QuerySelectWithCtx(context.Background(), w.Med.Config(), w.Name, q)
		if err != nil {
			return nil, err
		}
		qpiadCurves = append(qpiadCurves,
			eval.AccumulatedPrecision(w.RelevanceFlags(rs.Possible, q), upto))

		ar, err := baseline.AllReturned(w.Src, q)
		if err != nil {
			return nil, err
		}
		arCurves = append(arCurves,
			eval.AccumulatedPrecision(w.RelevanceFlags(ar.Possible, q), upto))
	}
	if used == 0 {
		return nil, fmt.Errorf("%s: every candidate query had zero relevant answers", id)
	}
	rep := &Report{ID: id, Title: title}
	rep.Series = append(rep.Series,
		DownsampleSeries(curveSeries("QPIAD", "Kth tuple", "avg accumulated precision", eval.MeanCurves(qpiadCurves)), 25),
		DownsampleSeries(curveSeries("AllReturned", "Kth tuple", "avg accumulated precision", eval.MeanCurves(arCurves)), 25),
	)
	rep.AddNote("averaged over %d queries", used)
	rep.AddNote("expected shape: QPIAD's early tuples are far more precise than AllReturned's")
	return rep, nil
}
