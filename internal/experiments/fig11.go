package experiments

import (
	"context"
	"fmt"

	"qpiad/internal/core"
	"qpiad/internal/datagen"
	"qpiad/internal/eval"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

func init() {
	register(Experiment{
		ID:    "fig11",
		Title: "Precision of answers retrieved from sources not supporting the query attribute",
		Run:   Figure11,
	})
}

// Figure11 reproduces the correlated-source experiment (Section 6.6): a
// mediator over Cars.com (supports body_style), Yahoo! Autos and CarsDirect
// (local schemas lack body_style). AFDs and classifiers learned from
// Cars.com drive rewritten queries against the other two; precision of the
// first K tuples is judged against each source's hidden true body styles.
func Figure11(s Scale) (*Report, error) {
	// Cars.com world supplies the knowledge and base sets.
	w, err := carsWorld(s, "", core.Config{Alpha: 0, K: 10}, 0)
	if err != nil {
		return nil, err
	}

	rep := &Report{ID: "fig11", Title: "Precision for first K tuples via correlated source Cars.com"}
	targets := []string{"yahoo_autos", "carsdirect"}
	queries := []string{"Convt", "Sedan", "Coupe", "Truck", "SUV"}

	for ti, name := range targets {
		// Independent inventory whose exported schema lacks body_style.
		gd := datagen.Cars(s.CarsN/2, s.Seed+int64(50+ti))
		styleCol := gd.Schema.MustIndex("body_style")
		idCol := gd.Schema.MustIndex("id")
		truth := make(map[int64]string, gd.Len())
		narrowSchema, err := gd.Schema.Project("id", "year", "make", "model", "price", "mileage", "certified")
		if err != nil {
			return nil, err
		}
		narrow := relation.New(name, narrowSchema)
		for i := 0; i < gd.Len(); i++ {
			t := gd.Tuple(i)
			truth[t[idCol].IntVal()] = t[styleCol].Str()
			narrow.MustInsert(relation.Tuple{t[0], t[1], t[2], t[3], t[4], t[5], t[7]})
		}
		src := source.New(name, narrow, source.Capabilities{})
		w.Med.Register(src, nil)

		var curves [][]float64
		for _, style := range queries {
			q := relation.NewQuery("gs", relation.Eq("body_style", relation.String(style)))
			rs, err := w.Med.QuerySelectCorrelatedCtx(context.Background(), name, q)
			if err != nil {
				return nil, fmt.Errorf("fig11: %s %s: %w", name, style, err)
			}
			flags := make([]bool, len(rs.Possible))
			for i, a := range rs.Possible {
				flags[i] = truth[a.Tuple[narrowSchema.MustIndex("id")].IntVal()] == style
			}
			curves = append(curves, eval.AccumulatedPrecision(flags, 40))
		}
		rep.Series = append(rep.Series,
			DownsampleSeries(curveSeries(name, "Kth tuple", "precision", eval.MeanCurves(curves)), 20))
	}
	rep.AddNote("avg over %d body-style queries per source", len(queries))
	rep.AddNote("expected shape: high precision despite the target sources never exporting body_style")
	return rep, nil
}
