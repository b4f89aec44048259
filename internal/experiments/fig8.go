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
		ID:    "fig8",
		Title: "Tuples retrieved to reach a recall level: QPIAD vs AllRanked",
		Run:   Figure8,
	})
}

// Figure8 measures retrieval cost: how many tuples must be transferred from
// the source to achieve each level of recall over the relevant possible
// answers. AllRanked must first transfer every tuple with a null on the
// constrained attribute — its cost is flat and high. QPIAD's rewritten
// queries transfer only what they retrieve, in precision order.
func Figure8(s Scale) (*Report, error) {
	w, err := carsWorld(s, "", core.Config{Alpha: 1, K: 0}, 0)
	if err != nil {
		return nil, err
	}
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))
	totalRelevant := w.RelevantPossibleCount(q)
	if totalRelevant == 0 {
		return nil, fmt.Errorf("fig8: no relevant possible answers")
	}
	targets := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

	// QPIAD: per-answer transferred-so-far cost. Answers arrive grouped by
	// their retrieving query, in issue order; cumulative Transferred gives
	// the cost at the moment each query's answers land.
	rs, err := w.Med.QuerySelectWithCtx(context.Background(), w.Med.Config(), "cars", q)
	if err != nil {
		return nil, err
	}
	costAfterQuery := make(map[string]int, len(rs.Issued))
	cum := 0
	for _, rq := range rs.Issued {
		cum += rq.Transferred
		costAfterQuery[rq.Query.Key()] = cum
	}
	flags := w.RelevanceFlags(rs.Possible, q)
	transferred := make([]int, len(rs.Possible))
	for i, a := range rs.Possible {
		transferred[i] = costAfterQuery[a.FromQuery.Key()]
	}
	qpiadCost := eval.TuplesToReachRecall(flags, totalRelevant, targets, transferred)

	// AllRanked: every null-bearing tuple is transferred up front; the cost
	// of any recall level is that constant.
	ar, err := baseline.AllRanked(w.Src, q, w.Know)
	if err != nil {
		return nil, err
	}
	arFlags := w.RelevanceFlags(ar.Possible, q)
	arTotal := len(ar.Possible) + len(ar.Unranked)
	arTransferred := make([]int, len(ar.Possible))
	for i := range arTransferred {
		arTransferred[i] = arTotal
	}
	arCost := eval.TuplesToReachRecall(arFlags, totalRelevant, targets, arTransferred)

	rep := &Report{ID: "fig8", Title: "Q:(Body Style=Convt) — tuples required vs recall"}
	qs := Series{Name: "QPIAD", XLabel: "recall", YLabel: "# tuples required"}
	as := Series{Name: "AllRanked", XLabel: "recall", YLabel: "# tuples required"}
	for i, tgt := range targets {
		if qpiadCost[i] >= 0 {
			qs.X = append(qs.X, tgt)
			qs.Y = append(qs.Y, float64(qpiadCost[i]))
		}
		if arCost[i] >= 0 {
			as.X = append(as.X, tgt)
			as.Y = append(as.Y, float64(arCost[i]))
		}
	}
	rep.Series = append(rep.Series, qs, as)
	rep.AddNote("AllRanked transfers all %d null-bearing tuples before any recall is possible", arTotal)
	rep.AddNote("expected shape: QPIAD reaches each recall level with a small fraction of AllRanked's transfers")
	return rep, nil
}
