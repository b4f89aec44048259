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
		ID:    "fig3",
		Title: "P/R of QPIAD vs AllReturned, Cars σ(BodyStyle=Convt)",
		Run:   Figure3,
	})
	register(Experiment{
		ID:    "fig4",
		Title: "P/R of QPIAD vs AllReturned, Census σ(Relationship=Own-child)",
		Run:   Figure4,
	})
}

// Figure3 compares precision-recall of QPIAD's ranked possible answers
// against the AllReturned baseline for the paper's running Cars query.
func Figure3(s Scale) (*Report, error) {
	w, err := carsWorld(s, "", core.Config{Alpha: 0, K: 0}, 0)
	if err != nil {
		return nil, err
	}
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))
	return prVsAllReturned(w, q, "fig3", "Query Q:(Body Style=Convt)")
}

// Figure4 is the Census counterpart.
func Figure4(s Scale) (*Report, error) {
	w, err := censusWorld(s, "", core.Config{Alpha: 0, K: 0}, 0)
	if err != nil {
		return nil, err
	}
	q := relation.NewQuery("census", relation.Eq("relationship", relation.String("Own-child")))
	return prVsAllReturned(w, q, "fig4", "Query Q:(Family Relation=Own Child)")
}

// prVsAllReturned runs both systems on the same world and reports their
// precision-recall curves over possible answers (certain answers excluded,
// as in Section 6.2: "all the experiments ... ignore the certain answers").
func prVsAllReturned(w *eval.World, q relation.Query, id, title string) (*Report, error) {
	totalRelevant := w.RelevantPossibleCount(q)
	if totalRelevant == 0 {
		return nil, fmt.Errorf("%s: no relevant possible answers in world", id)
	}

	rs, err := w.Med.QuerySelectWithCtx(context.Background(), w.Med.Config(), w.Name, q)
	if err != nil {
		return nil, err
	}
	qpiadPR := eval.PRCurve(w.RelevanceFlags(rs.Possible, q), totalRelevant)

	ar, err := baseline.AllReturned(w.Src, q)
	if err != nil {
		return nil, err
	}
	arPR := eval.PRCurve(w.RelevanceFlags(ar.Possible, q), totalRelevant)

	rep := &Report{ID: id, Title: title}
	rep.Series = append(rep.Series,
		DownsampleSeries(prSeries("QPIAD", qpiadPR), 25),
		DownsampleSeries(prSeries("AllReturned", arPR), 25),
	)
	qp, qr := eval.PrecisionRecall(w.RelevanceFlags(rs.Possible, q), totalRelevant)
	ap, arcl := eval.PrecisionRecall(w.RelevanceFlags(ar.Possible, q), totalRelevant)
	rep.AddNote("QPIAD overall: P=%.3f R=%.3f over %d answers (%d rewrites issued)", qp, qr, len(rs.Possible), len(rs.Issued))
	rep.AddNote("AllReturned overall: P=%.3f R=%.3f over %d answers", ap, arcl, len(ar.Possible))
	rep.AddNote("expected shape: QPIAD precision well above AllReturned at every recall level")
	return rep, nil
}
