package experiments

import (
	"context"

	"qpiad/internal/core"
	"qpiad/internal/eval"
	"qpiad/internal/relation"
)

func init() {
	register(Experiment{
		ID:    "fig5",
		Title: "Effect of α on precision and recall, Cars σ(Price≈20000), K=10",
		Run:   Figure5,
	})
}

// Figure5 shows the precision/recall tradeoff as the F-measure α grows,
// with the rewritten-query budget fixed at K=10: low α favors precise
// queries that stop at modest recall; higher α admits higher-throughput
// queries that extend the curve rightward at some precision cost.
func Figure5(s Scale) (*Report, error) {
	alphas := []float64{0, 0.1, 1}
	rep := &Report{ID: "fig5", Title: "Effect of α on precision and recall (K = 10 rewritten queries)"}

	// Reuse one world across α values: same data, same knowledge; only the
	// per-call α changes. Incompleteness is concentrated on price (as in
	// Figure 7) so the precision/recall tradeoff is measured over a
	// meaningful pool of hidden prices.
	w, err := carsWorld(s, "price", core.Config{Alpha: 0, K: 10}, 0)
	if err != nil {
		return nil, err
	}
	price, err := modalValueNear(w.GD, "price", 15000, 25000)
	if err != nil {
		return nil, err
	}
	q := relation.NewQuery("cars", relation.Eq("price", price))
	totalRelevant := w.RelevantPossibleCount(q)

	for _, a := range alphas {
		cfg := w.Med.Config()
		cfg.Alpha = a
		w.Src.ResetStats()
		rs, err := w.Med.QuerySelectWithCtx(context.Background(), cfg, "cars", q)
		if err != nil {
			return nil, err
		}
		pr := eval.PRCurve(w.RelevanceFlags(rs.Possible, q), totalRelevant)
		name := "alpha = " + fmtF(a)
		rep.Series = append(rep.Series, DownsampleSeries(prSeries(name, pr), 20))
		p, r := eval.PrecisionRecall(w.RelevanceFlags(rs.Possible, q), totalRelevant)
		rep.AddNote("α=%.1f: P=%.3f R=%.3f (%d answers from %d rewrites; query %s)",
			a, p, r, len(rs.Possible), len(rs.Issued), q)
	}
	rep.AddNote("expected shape: raising α trades precision for recall; low-α curves sit higher but stop earlier")
	return rep, nil
}
