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
		ID:    "fig13",
		Title: "Join queries over Cars ⋈(model) Complaints, α ∈ {0, 0.5, 2}, K=10",
		Run:   Figure13,
	})
}

// Figure13 reproduces the join evaluation: two join queries with selections
// on both relations, processed as top-K query pairs at three α settings,
// judged against the oracular join of the complete test partitions.
//
// World sizes are capped: an equi-join on the non-key model attribute
// materializes |matching cars| × |matching complaints| answers, and the
// synthetic catalog's 30 models make per-model selections two orders of
// magnitude less selective than the paper's 416-model crawl. The capped
// sizes keep the answer sets in the paper's regime while exercising the
// identical code paths.
func Figure13(s Scale) (*Report, error) {
	if s.CarsN > 15000 {
		s.CarsN = 15000
	}
	if s.ComplaintsN > 20000 {
		s.ComplaintsN = 20000
	}
	worlds, err := buildWorlds(
		func() (*eval.World, error) { return carsWorld(s, "", core.Config{Alpha: 0, K: 10}, 0) },
		func() (*eval.World, error) { return complaintsWorld(s, core.Config{Alpha: 0, K: 10}, 0) },
	)
	if err != nil {
		return nil, err
	}
	carsW, compW := worlds[0], worlds[1]
	// One mediator over both worlds.
	med := core.New(core.Config{Alpha: 0, K: 10})
	med.Register(carsW.Src, carsW.Know)
	med.Register(compW.Src, compW.Know)

	cases := []struct {
		title     string
		carModel  string
		component string
	}{
		{"Q:(Gen. Comp.=Engine and Engine Cooling) JOIN ON (Model=Grand Cherokee)", "Grand Cherokee", "Engine and Engine Cooling"},
		{"Q:(Gen. Comp.=Electrical System) JOIN ON (Model=F150)", "F150", "Electrical System"},
	}
	alphas := []float64{0, 0.5, 2}

	rep := &Report{ID: "fig13", Title: "Precision-recall curves for join queries, possible answers only (K = 10 query pairs)"}
	for _, c := range cases {
		truth := joinTruth(carsW, compW, c.carModel, c.component)
		if truth.possibleSize() == 0 {
			return nil, fmt.Errorf("fig13: no true possible join results for %s", c.title)
		}
		for _, a := range alphas {
			spec := core.JoinSpec{
				LeftSource:    "cars",
				RightSource:   "complaints",
				LeftQuery:     relation.NewQuery("cars", relation.Eq("model", relation.String(c.carModel))),
				RightQuery:    relation.NewQuery("complaints", relation.Eq("general_component", relation.String(c.component))),
				LeftJoinAttr:  "model",
				RightJoinAttr: "model",
				Alpha:         a,
				K:             10,
			}
			res, err := med.QueryJoinCtx(context.Background(), spec)
			if err != nil {
				return nil, err
			}
			// Section 6.2: the evaluation ignores certain answers — every
			// approach handles those identically. Judge the ranked possible
			// joins against the possible part of the oracular join.
			var possible []core.JoinAnswer
			for _, ans := range res.Answers {
				if !ans.Certain {
					possible = append(possible, ans)
				}
			}
			flags := make([]bool, len(possible))
			for i, ans := range possible {
				flags[i] = truth.containsPossible(carsW.ID(ans.Left), compW.ID(ans.Right))
			}
			pr := eval.PRCurve(flags, truth.possibleSize())
			name := fmt.Sprintf("%s alpha=%.1f", c.carModel, a)
			rep.Series = append(rep.Series, DownsampleSeries(prSeries(name, pr), 15))
			p, r := eval.PrecisionRecall(flags, truth.possibleSize())
			rep.AddNote("%s α=%.1f: P=%.3f R=%.3f (%d possible joins of %d true)",
				c.carModel, a, p, r, len(possible), truth.possibleSize())
		}
	}
	rep.AddNote("expected shape: α=0 maintains precision but recall saturates early; α=2 extends recall with modest precision loss")
	return rep, nil
}

// truthSets is the factored oracular join: because both selections fix the
// same model constant, the true join result is exactly
// (CarCert ∪ CarPoss) × (CompCert ∪ CompPoss). A pair is a *possible* join
// answer unless both members are certain. Storing per-side id sets keeps
// memory linear where the materialized pair set would be quadratic.
type truthSets struct {
	// CarCert are test cars whose visible model matches (certain answers).
	CarCert map[int64]bool
	// CarPoss are test cars whose model is null but truly matches.
	CarPoss map[int64]bool
	// CompCert are test complaints visible on both component and model.
	CompCert map[int64]bool
	// CompPoss are test complaints truly matching but null on component or
	// on the join attribute.
	CompPoss map[int64]bool
}

// possibleSize counts true join pairs with at least one possible member.
func (ts truthSets) possibleSize() int {
	all := (len(ts.CarCert) + len(ts.CarPoss)) * (len(ts.CompCert) + len(ts.CompPoss))
	return all - len(ts.CarCert)*len(ts.CompCert)
}

// containsPossible reports whether (carID, compID) is a true join pair with
// at least one possible member.
func (ts truthSets) containsPossible(carID, compID int64) bool {
	carIn := ts.CarCert[carID] || ts.CarPoss[carID]
	compIn := ts.CompCert[compID] || ts.CompPoss[compID]
	if !carIn || !compIn {
		return false
	}
	return !(ts.CarCert[carID] && ts.CompCert[compID])
}

// joinTruth computes the oracular join of the complete versions of both
// test partitions under the two selections, split into certain and
// possible members per side.
func joinTruth(carsW, compW *eval.World, model, component string) truthSets {
	carGD := gdByID(carsW)
	compGD := gdByID(compW)
	carModel := carsW.Test.Schema.MustIndex("model")
	compModel := compW.Test.Schema.MustIndex("model")
	compComp := compW.Test.Schema.MustIndex("general_component")

	ts := truthSets{
		CarCert: map[int64]bool{}, CarPoss: map[int64]bool{},
		CompCert: map[int64]bool{}, CompPoss: map[int64]bool{},
	}
	for _, t := range carsW.Test.Tuples() {
		id := carsW.ID(t)
		if carGD[id][carModel].Str() != model {
			continue
		}
		if t[carModel].IsNull() {
			ts.CarPoss[id] = true
		} else {
			ts.CarCert[id] = true
		}
	}
	for _, t := range compW.Test.Tuples() {
		id := compW.ID(t)
		g := compGD[id]
		if g[compComp].Str() != component || g[compModel].Str() != model {
			continue
		}
		if t[compComp].IsNull() || t[compModel].IsNull() {
			ts.CompPoss[id] = true
		} else {
			ts.CompCert[id] = true
		}
	}
	return ts
}

// gdByID indexes a world's ground truth by id.
func gdByID(w *eval.World) map[int64]relation.Tuple {
	idCol := -1
	for _, n := range []string{"id", "cid"} {
		if c, ok := w.GD.Schema.Index(n); ok {
			idCol = c
			break
		}
	}
	out := make(map[int64]relation.Tuple, w.GD.Len())
	for _, t := range w.GD.Tuples() {
		out[t[idCol].IntVal()] = t
	}
	return out
}
