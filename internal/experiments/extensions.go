package experiments

import (
	"context"
	"fmt"
	"time"

	"qpiad/internal/afd"
	"qpiad/internal/core"
	"qpiad/internal/datagen"
	"qpiad/internal/eval"
	"qpiad/internal/nbc"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

func init() {
	register(Experiment{
		ID:    "ext-multijoin",
		Title: "Three-way chain join Cars ⋈ Complaints ⋈ Recalls (footnote 5 extension)",
		Run:   ExtMultiJoin,
	})
	register(Experiment{
		ID:    "ext-parallel",
		Title: "Concurrent rewrite issuing under simulated source latency",
		Run:   ExtParallel,
	})
}

// ExtMultiJoin exercises the n-way chain join the paper's footnote 5
// claims: cars join complaints on model, complaints join recalls on
// component, all three sources incomplete. Reported: chain answers found
// (certain / possible) and the α effect on the possible count.
func ExtMultiJoin(s Scale) (*Report, error) {
	if s.CarsN > 15000 {
		s.CarsN = 15000
	}
	if s.ComplaintsN > 15000 {
		s.ComplaintsN = 15000
	}
	worlds, err := buildWorlds(
		func() (*eval.World, error) { return carsWorld(s, "model", core.Config{Alpha: 0.5, K: 8}, 0) },
		func() (*eval.World, error) { return complaintsWorld(s, core.Config{Alpha: 0.5, K: 8}, 0) },
	)
	if err != nil {
		return nil, err
	}
	carsW, compW := worlds[0], worlds[1]
	recGD := datagen.Recalls(s.ComplaintsN/4, s.Seed+30)
	recED, _ := datagen.MakeIncompleteAttr(recGD, "severity", s.IncompleteFrac, s.Seed+31)
	recSrc := source.New("recalls", recED, source.Capabilities{})
	recSample := recED.Sample(recED.Len()/10, seededRng(s.Seed+32))
	recK, err := core.MineKnowledge("recalls", recSample,
		float64(recED.Len())/float64(recSample.Len()), recSample.IncompleteFraction(),
		core.KnowledgeConfig{AFD: afd.Config{MinSupport: 5}, Predictor: nbc.PredictorConfig{}})
	if err != nil {
		return nil, err
	}
	med := core.New(core.Config{Alpha: 0.5, K: 8})
	med.Register(carsW.Src, carsW.Know)
	med.Register(compW.Src, compW.Know)
	med.Register(recSrc, recK)

	rep := &Report{ID: "ext-multijoin", Title: "Cars ⋈(model) Complaints ⋈(component) Recalls"}
	tbl := Table{
		Name:   "chain answers by α (K = 8 pairs per adjacency)",
		Header: []string{"Alpha", "Chains", "Certain", "Possible"},
	}
	for _, alpha := range []float64{0, 0.5, 2} {
		spec := core.ChainSpec{
			Sources: []string{"cars", "complaints", "recalls"},
			Queries: []relation.Query{
				relation.NewQuery("cars",
					relation.Eq("model", relation.String("F150")),
					relation.Eq("year", relation.Int(2003))),
				relation.NewQuery("complaints", relation.Eq("fire", relation.String("yes"))),
				relation.NewQuery("recalls", relation.Eq("severity", relation.String("severe"))),
			},
			JoinAttrs: [][2]string{{"model", "model"}, {"general_component", "component"}},
			Alpha:     alpha,
			K:         8,
		}
		res, err := med.QueryJoinChainCtx(context.Background(), spec)
		if err != nil {
			return nil, err
		}
		certain, possible := 0, 0
		for _, a := range res.Answers {
			if a.Certain {
				certain++
			} else {
				possible++
			}
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmtF(alpha), fmt.Sprintf("%d", len(res.Answers)),
			fmt.Sprintf("%d", certain), fmt.Sprintf("%d", possible),
		})
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.AddNote("expected shape: possible chains exist at every α; higher α never finds fewer")
	return rep, nil
}

// ExtParallel measures the wall-clock effect of issuing the chosen top-K
// rewrites concurrently against a source with simulated per-query latency.
func ExtParallel(s Scale) (*Report, error) {
	gd := datagen.Cars(min(s.CarsN, 10000), s.Seed+40)
	ed, _ := datagen.MakeIncompleteAttr(gd, "body_style", s.IncompleteFrac, s.Seed+41)
	const latency = 5 * time.Millisecond
	smpl := ed.Sample(ed.Len()/10, seededRng(s.Seed+42))
	know, err := core.MineKnowledge("cars", smpl,
		float64(ed.Len())/float64(smpl.Len()), smpl.IncompleteFraction(),
		defaultKnowledge())
	if err != nil {
		return nil, err
	}
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))

	rep := &Report{ID: "ext-parallel", Title: fmt.Sprintf("Rewrite issuing with %v source latency, K=10", latency)}
	tbl := Table{
		Name:   "wall-clock per query",
		Header: []string{"Parallelism", "Rewrites issued", "Duration", "Answers"},
	}
	for _, par := range []int{1, 4, 10} {
		src := source.New("cars", ed, source.Capabilities{Latency: latency})
		med := core.New(core.Config{Alpha: 0.5, K: 10, Parallel: par})
		med.Register(src, know)
		start := time.Now()
		rs, err := med.QuerySelectWithCtx(context.Background(), med.Config(), "cars", q)
		if err != nil {
			return nil, err
		}
		dur := time.Since(start)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", par),
			fmt.Sprintf("%d", len(rs.Issued)),
			dur.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", len(rs.Possible)),
		})
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.AddNote("expected shape: duration shrinks with parallelism while answers stay identical")
	return rep, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
