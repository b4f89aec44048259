package experiments

import (
	"context"
	"fmt"
	"time"

	"qpiad/internal/breaker"
	"qpiad/internal/core"
	"qpiad/internal/datagen"
	"qpiad/internal/faults"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

func init() {
	register(Experiment{
		ID:    "ext-resilience",
		Title: "Graceful degradation under injected transient-error rates",
		Run:   ExtResilience,
	})
}

// ExtResilience sweeps injected transient-error rates against a single
// source and reports how the mediator degrades: how many rewrites were
// issued, how many failed after retries, how many source-level retries the
// policy spent, and how many possible answers survived. Fault injection is
// seeded, so the table is reproducible.
func ExtResilience(s Scale) (*Report, error) {
	gd := datagen.Cars(min(s.CarsN, 10000), s.Seed+50)
	ed, _ := datagen.MakeIncompleteAttr(gd, "body_style", s.IncompleteFrac, s.Seed+51)
	smpl := ed.Sample(ed.Len()/10, seededRng(s.Seed+52))
	know, err := core.MineKnowledge("cars", smpl,
		float64(ed.Len())/float64(smpl.Len()), smpl.IncompleteFraction(),
		defaultKnowledge())
	if err != nil {
		return nil, err
	}
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))
	retry := core.RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 200 * time.Microsecond,
		MaxBackoff:  2 * time.Millisecond,
	}

	rep := &Report{ID: "ext-resilience", Title: "Retrieval under transient source errors (3 attempts, seeded faults)"}
	tbl := Table{
		Name:   "degradation by injected error rate",
		Header: []string{"Error rate", "Issued", "Failed", "Retries", "Possible", "Degraded"},
	}
	for _, rate := range []float64{0, 0.1, 0.2, 0.3, 0.5} {
		src := source.New("cars", ed, source.Capabilities{})
		if rate > 0 {
			src.SetFaults(faults.New(faults.Profile{Seed: s.Seed + 53, TransientRate: rate}))
		}
		med := core.New(core.Config{Alpha: 0.5, K: 10, Parallel: 4, Retry: retry})
		med.Register(src, know)
		rs, err := med.QuerySelectWithCtx(context.Background(), med.Config(), "cars", q)
		if err != nil {
			// The base query failed all attempts: total degradation, still a
			// data point rather than an experiment failure.
			tbl.Rows = append(tbl.Rows, []string{
				fmtF(rate), "0", "0",
				fmt.Sprintf("%d", src.Stats().Retries), "0", "base failed",
			})
			continue
		}
		failed := 0
		for _, rq := range rs.Issued {
			if rq.Err != nil {
				failed++
			}
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmtF(rate),
			fmt.Sprintf("%d", len(rs.Issued)),
			fmt.Sprintf("%d", failed),
			fmt.Sprintf("%d", src.Stats().Retries),
			fmt.Sprintf("%d", len(rs.Possible)),
			fmt.Sprintf("%v", rs.Degraded),
		})
	}
	rep.Tables = append(rep.Tables, tbl)

	// Second sweep: a flapping source (brief up windows between long down
	// windows) with retry-only versus circuit-breaker admission. The breaker
	// trips on the first down window and rejects at admission, so the
	// mediator stops burning a retry storm per planned rewrite.
	flap := Table{
		Name:   "flapping source: retry-only vs circuit breaker (10 queries, up 2 / down 8)",
		Header: []string{"Admission", "Src queries", "Retries", "Rejected open", "Answered", "Saved"},
	}
	flapProfile := faults.Profile{Seed: s.Seed + 54, FlapUp: 2, FlapDown: 8}
	var retryOnlyQueries int
	for _, useBreaker := range []bool{false, true} {
		src := source.New("cars", ed, source.Capabilities{})
		src.SetFaults(faults.New(flapProfile))
		cfg := core.Config{Alpha: 0.5, K: 10, Retry: retry, NoCache: true}
		if useBreaker {
			cfg.Breaker = &breaker.Config{
				Window: 8, MinSamples: 4, ConsecutiveFailures: 2, OpenTimeout: time.Minute,
			}
		}
		med := core.New(cfg)
		med.Register(src, know)
		answered := 0
		for i := 0; i < 10; i++ {
			if rs, err := med.QuerySelectWithCtx(context.Background(), med.Config(), "cars", q); err == nil && !rs.Degraded {
				answered++
			}
		}
		st := src.Stats()
		label, saved := "retry-only", "-"
		if useBreaker {
			label = "breaker"
			if st.Queries > 0 {
				saved = fmt.Sprintf("%.1fx", float64(retryOnlyQueries)/float64(st.Queries))
			}
		} else {
			retryOnlyQueries = st.Queries
		}
		flap.Rows = append(flap.Rows, []string{
			label,
			fmt.Sprintf("%d", st.Queries),
			fmt.Sprintf("%d", st.Retries),
			fmt.Sprintf("%d", st.BreakerRejected),
			fmt.Sprintf("%d", answered),
			saved,
		})
	}
	rep.Tables = append(rep.Tables, flap)
	rep.AddNote("expected shape: answers shrink gracefully as the error rate climbs; certain answers survive whenever the base query gets through")
	rep.AddNote("flapping source: the breaker trips during the first down window and sheds the remaining load at admission — source queries drop by an order of magnitude while the retry-only mediator keeps paying 3 attempts per planned rewrite")
	return rep, nil
}
