package experiments

import (
	"context"
	"fmt"
	"time"

	"qpiad/internal/core"
	"qpiad/internal/datagen"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

func init() {
	register(Experiment{
		ID:    "ext-stream",
		Title: "Streaming executor: time-to-first-answer and top-N source-traffic savings",
		Run:   ExtStream,
	})
}

// ExtStream compares the batch executor against the streaming one on the
// same incomplete-source query, over a source with realistic per-query
// latency. Rows: batch, stream with no bound, and stream under tightening
// top-N bounds. Measured: source queries issued, tuples transferred, time to
// first answer, and possible answers delivered. The top-N rows should show
// strictly less source traffic with an identical answer prefix — the
// confidence bound is admissible, so nothing the user sees changes.
func ExtStream(s Scale) (*Report, error) {
	const srcLatency = 2 * time.Millisecond

	gd := datagen.Cars(min(s.CarsN, 10000), s.Seed+70)
	ed, _ := datagen.MakeIncompleteAttr(gd, "body_style", s.IncompleteFrac, s.Seed+71)
	smpl := ed.Sample(ed.Len()/10, seededRng(s.Seed+72))
	know, err := core.MineKnowledge("cars", smpl,
		float64(ed.Len())/float64(smpl.Len()), smpl.IncompleteFraction(),
		defaultKnowledge())
	if err != nil {
		return nil, err
	}
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))

	rep := &Report{ID: "ext-stream", Title: "Streaming vs batch selection (2ms source latency, seeded data)"}
	tbl := Table{
		Name:   "executor comparison",
		Header: []string{"Mode", "Queries", "Tuples", "TTFA", "Possible", "Saved rewrites"},
	}

	run := func(mode string, topN int) error {
		src := source.New("cars", ed, source.Capabilities{Latency: srcLatency})
		med := core.New(core.Config{Alpha: 0.5, K: 10, Parallel: 1, TopN: topN, NoCache: true})
		med.Register(src, know)

		var (
			ttfa     time.Duration
			possible int
			saved    string
		)
		start := time.Now()
		if mode == "batch" {
			rs, err := med.QuerySelect("cars", q)
			if err != nil {
				return err
			}
			// Batch delivers nothing until the whole fan-out finishes.
			ttfa = time.Since(start)
			possible = len(rs.Possible)
			saved = "-"
		} else {
			events, err := med.SelectStream(context.Background(), "cars", q)
			if err != nil {
				return err
			}
			first := false
			for ev := range events {
				switch ev.Kind {
				case core.StreamEventAnswer:
					if !first {
						first = true
						ttfa = time.Since(start)
					}
				case core.StreamEventSummary:
					possible = len(ev.Summary.Result.Possible)
					saved = fmt.Sprintf("%d skipped, %d cancelled",
						ev.Summary.SkippedRewrites, ev.Summary.CancelledRewrites)
				case core.StreamEventPanic:
					panic(ev.Panic)
				}
			}
		}
		st := src.Stats()
		tbl.Rows = append(tbl.Rows, []string{
			mode,
			fmt.Sprintf("%d", st.Queries),
			fmt.Sprintf("%d", st.TuplesReturned),
			fmt.Sprintf("%v", ttfa.Round(10*time.Microsecond)),
			fmt.Sprintf("%d", possible),
			saved,
		})
		return nil
	}

	if err := run("batch", 0); err != nil {
		return nil, err
	}
	if err := run("stream", 0); err != nil {
		return nil, err
	}
	for _, topN := range []int{10, 5, 1} {
		if err := run(fmt.Sprintf("stream top-%d", topN), topN); err != nil {
			return nil, err
		}
	}

	rep.Tables = append(rep.Tables, tbl)
	rep.AddNote("TTFA for batch is the full pipeline latency; streaming answers arrive after one source round-trip")
	rep.AddNote("expected shape: identical queries/tuples for batch and unbounded stream; top-N rows issue strictly fewer queries as the bound tightens")
	return rep, nil
}
