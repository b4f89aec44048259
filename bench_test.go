// Benchmarks regenerating the paper's evaluation. One testing.B benchmark
// per table and figure (running the corresponding experiment at Small
// scale), the ablation benches DESIGN.md calls out, plus micro-benchmarks
// of the expensive primitives (TANE mining, NBC training and prediction,
// rewrite generation and end-to-end selection).
//
// Run everything:  go test -bench=. -benchmem
// One experiment:  go test -bench=BenchmarkFigure8 -benchmem
package qpiad

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"qpiad/internal/afd"
	"qpiad/internal/breaker"
	"qpiad/internal/chaos"
	"qpiad/internal/core"
	"qpiad/internal/datagen"
	"qpiad/internal/experiments"
	"qpiad/internal/faults"
	"qpiad/internal/httpapi"
	"qpiad/internal/loadgen"
	"qpiad/internal/nbc"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// benchScale trims the Small scale a little further so the full bench
// suite stays in the minutes range.
func benchScale() experiments.Scale {
	s := experiments.Small
	s.CarsN = 4000
	s.CensusN = 4000
	s.ComplaintsN = 5000
	s.WebN = 3000
	return s
}

// runExperiment benches one experiment end to end (world construction,
// mining, query processing, metric computation).
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	s := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Tables) == 0 && len(rep.Series) == 0 {
			b.Fatal("empty report")
		}
	}
}

// --- one bench per paper table/figure ---

func BenchmarkTable1SourceStats(b *testing.B)        { runExperiment(b, "table1") }
func BenchmarkTable3ClassifierAccuracy(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkFigure3(b *testing.B)                  { runExperiment(b, "fig3") }
func BenchmarkFigure4(b *testing.B)                  { runExperiment(b, "fig4") }
func BenchmarkFigure5(b *testing.B)                  { runExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B)                  { runExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B)                  { runExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)                  { runExperiment(b, "fig8") }
func BenchmarkFigure9(b *testing.B)                  { runExperiment(b, "fig9") }
func BenchmarkFigure10(b *testing.B)                 { runExperiment(b, "fig10") }
func BenchmarkFigure11(b *testing.B)                 { runExperiment(b, "fig11") }
func BenchmarkFigure12(b *testing.B)                 { runExperiment(b, "fig12") }
func BenchmarkFigure13(b *testing.B)                 { runExperiment(b, "fig13") }

// --- ablation benches (DESIGN.md) ---

func BenchmarkExtMultiJoin(b *testing.B)            { runExperiment(b, "ext-multijoin") }
func BenchmarkExtParallel(b *testing.B)             { runExperiment(b, "ext-parallel") }
func BenchmarkExtResilience(b *testing.B)           { runExperiment(b, "ext-resilience") }
func BenchmarkExtStream(b *testing.B)               { runExperiment(b, "ext-stream") }
func BenchmarkAblationOrdering(b *testing.B)        { runExperiment(b, "ablation-ordering") }
func BenchmarkAblationBaseSetVsSample(b *testing.B) { runExperiment(b, "ablation-base-vs-sample") }
func BenchmarkAblationAKeyPruning(b *testing.B)     { runExperiment(b, "ablation-akey-pruning") }
func BenchmarkAblationAggregateRule(b *testing.B)   { runExperiment(b, "ablation-agg-rule") }
func BenchmarkClassifierComparison(b *testing.B)    { runExperiment(b, "classifiers") }

// --- micro-benchmarks of the core primitives ---

func benchSample(n int) *relation.Relation {
	gd := datagen.Cars(n, 99)
	ed, _ := datagen.MakeIncomplete(gd, 0.10, 100)
	return ed
}

func BenchmarkTANEMining(b *testing.B) {
	smpl := benchSample(5000).Sample(2000, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := afd.Mine(smpl, afd.Config{MinSupport: 5})
		if len(res.AFDs) == 0 {
			b.Fatal("no AFDs mined")
		}
	}
}

func BenchmarkNBCTraining(b *testing.B) {
	smpl := benchSample(5000).Sample(2000, rand.New(rand.NewSource(2)))
	mined := afd.Mine(smpl, afd.Config{MinSupport: 5})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nbc.TrainPredictor(smpl, "body_style", mined, nbc.PredictorConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNBCPrediction(b *testing.B) {
	smpl := benchSample(5000).Sample(2000, rand.New(rand.NewSource(3)))
	mined := afd.Mine(smpl, afd.Config{MinSupport: 5})
	p, err := nbc.TrainPredictor(smpl, "body_style", mined, nbc.PredictorConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ev := map[string]relation.Value{"model": relation.String("Z4")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := p.PredictEvidence(ev); d.Len() == 0 {
			b.Fatal("empty distribution")
		}
	}
}

func benchKnowledge(b *testing.B, ed *relation.Relation) *core.Knowledge {
	b.Helper()
	smpl := ed.Sample(ed.Len()/10, rand.New(rand.NewSource(4)))
	k, err := core.MineKnowledge("cars", smpl, 10, smpl.IncompleteFraction(), core.KnowledgeConfig{
		AFD: afd.Config{MinSupport: 5},
	})
	if err != nil {
		b.Fatal(err)
	}
	return k
}

func BenchmarkRewriteGeneration(b *testing.B) {
	ed := benchSample(8000)
	k := benchKnowledge(b, ed)
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))
	base := ed.Select(q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := core.GenerateRewrites(k, q, base, ed.Schema); len(got) == 0 {
			b.Fatal("no rewrites")
		}
	}
}

func BenchmarkQuerySelectEndToEnd(b *testing.B) {
	// NoCache: this measures the full rewrite/issue/rank pipeline; with the
	// answer cache on, every iteration after the first would be a cache hit
	// (see BenchmarkWarmQuery for that number).
	ed := benchSample(8000)
	k := benchKnowledge(b, ed)
	med := core.New(core.Config{Alpha: 0, K: 10, NoCache: true})
	med.Register(source.New("cars", ed, source.Capabilities{}), k)
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := med.QuerySelectWithCtx(context.Background(), med.Config(), "cars", q)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Certain) == 0 {
			b.Fatal("no answers")
		}
	}
}

func BenchmarkResilientFetch(b *testing.B) {
	// End-to-end selection against a 30% transient-error source with
	// microsecond-scale backoffs: the cost of the retry layer itself.
	ed := benchSample(8000)
	k := benchKnowledge(b, ed)
	med := core.New(core.Config{
		Alpha: 0, K: 10, Parallel: 4, NoCache: true,
		Retry: core.RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: 50 * time.Microsecond,
			MaxBackoff:  500 * time.Microsecond,
		},
	})
	src := source.New("cars", ed, source.Capabilities{})
	// Seed 1 lets the base query through within the attempt budget for
	// every iteration (fault decisions depend only on query key + attempt,
	// not iteration count, so one good seed holds for all of b.N).
	src.SetFaults(faults.New(faults.Profile{Seed: 1, TransientRate: 0.3}))
	med.Register(src, k)
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := med.QuerySelectWithCtx(context.Background(), med.Config(), "cars", q)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Certain) == 0 {
			b.Fatal("no answers")
		}
	}
}

// BenchmarkBreakerFlap measures admission control against a flapping
// source (2 queries served, then 8 failed, repeating): the retry-only
// mediator pays the full retry budget for every planned rewrite of every
// down-window query, while the breaker variant trips during the first down
// window and sheds the rest at admission. queries/op is actual source
// queries consumed per user query — the paper's first-class cost metric —
// and the breaker variant should come in well over 5x lower.
func BenchmarkBreakerFlap(b *testing.B) {
	ed := benchSample(8000)
	k := benchKnowledge(b, ed)
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))
	for _, variant := range []struct {
		name    string
		breaker *breaker.Config
	}{
		{"retry-only", nil},
		{"breaker", &breaker.Config{
			Window: 16, MinSamples: 8, ConsecutiveFailures: 3,
			// Real but short open window: circuits re-probe during the run
			// instead of staying open forever, so recovery cost is included.
			OpenTimeout: 500 * time.Microsecond,
		}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			med := core.New(core.Config{
				Alpha: 0, K: 10, NoCache: true,
				Retry: core.RetryPolicy{
					MaxAttempts: 3,
					BaseBackoff: 20 * time.Microsecond,
					MaxBackoff:  200 * time.Microsecond,
				},
				Breaker: variant.breaker,
			})
			src := source.New("cars", ed, source.Capabilities{})
			src.SetFaults(faults.New(faults.Profile{Seed: 1, FlapUp: 2, FlapDown: 8}))
			med.Register(src, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Down-window failures and open-circuit rejections are the
				// point of the workload, not benchmark errors.
				_, _ = med.QuerySelectWithCtx(context.Background(), med.Config(), "cars", q)
			}
			b.StopTimer()
			st := src.Stats()
			b.ReportMetric(float64(st.Queries)/float64(b.N), "queries/op")
			b.ReportMetric(float64(st.Retries)/float64(b.N), "retries/op")
			b.ReportMetric(float64(st.BreakerRejected)/float64(b.N), "rejected/op")
		})
	}
}

// BenchmarkMineKnowledge measures full offline mining (TANE + per-attribute
// NBC training) at worker counts 1 and 4. The two must produce identical
// knowledge (TestParallelMiningEquivalence); on multi-core hosts the
// workers=4 variant should approach the per-attribute-parallel lower bound.
func BenchmarkMineKnowledge(b *testing.B) {
	smpl := benchSample(8000).Sample(800, rand.New(rand.NewSource(5)))
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := core.KnowledgeConfig{
				AFD:     afd.Config{MinSupport: 5},
				Workers: workers,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k, err := core.MineKnowledge("cars", smpl, 10, smpl.IncompleteFraction(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(k.Predictors) == 0 {
					b.Fatal("no predictors trained")
				}
			}
		})
	}
}

// BenchmarkWarmQuery measures a repeated identical selection with the
// mediator answer cache on: after the first iteration every select is a
// cache hit plus a ResultSet clone. BenchmarkWarmQueryNoCache is the same
// workload through the full pipeline — their ratio is the cache's payoff.
func BenchmarkWarmQuery(b *testing.B) {
	benchWarmQuery(b, core.Config{Alpha: 0, K: 10})
}

func BenchmarkWarmQueryNoCache(b *testing.B) {
	benchWarmQuery(b, core.Config{Alpha: 0, K: 10, NoCache: true})
}

func benchWarmQuery(b *testing.B, cfg core.Config) {
	b.Helper()
	ed := benchSample(8000)
	k := benchKnowledge(b, ed)
	med := core.New(cfg)
	med.Register(source.New("cars", ed, source.Capabilities{}), k)
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))
	if _, err := med.QuerySelectWithCtx(context.Background(), med.Config(), "cars", q); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := med.QuerySelectWithCtx(context.Background(), med.Config(), "cars", q)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Certain) == 0 {
			b.Fatal("no answers")
		}
	}
}

func BenchmarkSourceIndexedSelect(b *testing.B) {
	ed := benchSample(20000)
	src := source.New("cars", ed, source.Capabilities{})
	q := relation.NewQuery("cars", relation.Eq("model", relation.String("Civic")))
	if _, err := src.Query(q); err != nil { // warm the index
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := src.Query(q)
		if err != nil || len(rows) == 0 {
			b.Fatalf("rows=%d err=%v", len(rows), err)
		}
	}
}

// BenchmarkStreamVsBatch compares the batch and streaming executors on the
// same query over a source with realistic (1ms) per-query latency, at
// sequential issuing so the query count dominates wall-clock. Beyond the
// usual ns/op it reports queries/op and tuples/op (source traffic) and
// ttfa-ns/op (time to first answer):
//
//   - batch:      TTFA is the full pipeline latency, traffic is the whole
//     top-K fan-out;
//   - stream:     identical traffic, TTFA collapses to one source
//     round-trip;
//   - stream-top: the top-5 confidence bound additionally cuts queries and
//     tuples transferred.
//
// The stream delivers answers in runs; the stream sub-benchmark fails
// unless its runs hold as many answers as batch returns.
func BenchmarkStreamVsBatch(b *testing.B) {
	const srcLatency = time.Millisecond
	gd := datagen.Cars(8000, 99)
	ed, _ := datagen.MakeIncompleteAttr(gd, "body_style", 0.10, 100)
	k := benchKnowledge(b, ed)
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))

	newWorld := func(topN int) (*core.Mediator, *source.Source) {
		src := source.New("cars", ed, source.Capabilities{Latency: srcLatency})
		med := core.New(core.Config{Alpha: 0, K: 10, Parallel: 1, TopN: topN, NoCache: true})
		med.Register(src, k)
		return med, src
	}
	report := func(b *testing.B, src *source.Source, ttfaTotal time.Duration) {
		st := src.Stats()
		b.ReportMetric(float64(st.Queries)/float64(b.N), "queries/op")
		b.ReportMetric(float64(st.TuplesReturned)/float64(b.N), "tuples/op")
		b.ReportMetric(float64(ttfaTotal.Nanoseconds())/float64(b.N), "ttfa-ns/op")
	}
	med, _ := newWorld(0)
	rs, err := med.QuerySelectWithCtx(context.Background(), med.Config(), "cars", q)
	if err != nil {
		b.Fatal(err)
	}
	batchAnswers := len(rs.Certain) + len(rs.Possible) + len(rs.Unranked)

	b.Run("batch", func(b *testing.B) {
		med, src := newWorld(0)
		var ttfa time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			rs, err := med.QuerySelectWithCtx(context.Background(), med.Config(), "cars", q)
			if err != nil {
				b.Fatal(err)
			}
			// Batch hands over nothing until the whole pipeline finishes.
			ttfa += time.Since(start)
			if len(rs.Certain) == 0 {
				b.Fatal("no answers")
			}
		}
		b.StopTimer()
		report(b, src, ttfa)
	})

	for _, bc := range []struct {
		name string
		topN int
	}{
		{"stream", 0},
		{"stream-top", 5},
	} {
		b.Run(bc.name, func(b *testing.B) {
			med, src := newWorld(bc.topN)
			var ttfa time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				events, err := med.SelectStreamWith(context.Background(), med.Config(), "cars", q)
				if err != nil {
					b.Fatal(err)
				}
				answers := 0
				for ev := range events {
					if ev.Kind != core.StreamEventAnswer {
						continue
					}
					if answers == 0 {
						ttfa += time.Since(start)
					}
					answers += len(ev.Answers)
				}
				if answers == 0 {
					b.Fatal("no answers")
				}
				if bc.topN == 0 && answers != batchAnswers {
					b.Fatalf("stream delivered %d answers, batch %d", answers, batchAnswers)
				}
			}
			b.StopTimer()
			report(b, src, ttfa)
		})
	}
}

func BenchmarkDatagenCars(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := datagen.Cars(10000, int64(i)); r.Len() != 10000 {
			b.Fatal("bad size")
		}
	}
}

// BenchmarkLazyVsMaterializedAggregate pins the iterator pipeline's memory
// claim (BENCH_PR6.json): an AVG over a selection of a 1M-tuple datagen
// world, run once through the materializing path (batch Select, then fold
// the collected slice) and once through the lazy path (Relation.Aggregate
// folding the scan stream directly). The lazy variant must allocate ≥90%
// fewer bytes/op; heap-B/op and heap-sys-B make the comparison visible in
// the JSON alongside the standard -benchmem columns.
func BenchmarkLazyVsMaterializedAggregate(b *testing.B) {
	db := datagen.Cars(1_000_000, 42)
	agg := relation.Aggregate{Func: relation.AggAvg, Attr: "price"}
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Sedan")))
	q.Agg = &agg
	// Warm the body_style index so both variants measure query execution,
	// not the one-time index build.
	db.Count(relation.NewQuery("cars", relation.Eq("body_style", relation.String("Sedan"))))

	// Prove the lazy stream tuple-for-tuple identical (order included) to
	// the batch Select before timing anything.
	sel := db.Select(q)
	if len(sel) == 0 {
		b.Fatal("selection is empty; benchmark would be vacuous")
	}
	i := 0
	for t := range db.Scan(q) {
		if i >= len(sel) || !t.Equal(sel[i]) {
			b.Fatalf("lazy scan diverges from batch Select at tuple %d", i)
		}
		i++
	}
	if i != len(sel) {
		b.Fatalf("lazy scan yielded %d tuples, Select returned %d", i, len(sel))
	}
	want, err := agg.Fold(db.Schema, relation.FromTuples(sel))
	if err != nil {
		b.Fatal(err)
	}

	check := func(b *testing.B, res relation.AggResult, err error) {
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows != want.Rows || res.Value != want.Value {
			b.Fatalf("aggregate drifted: %+v, want %+v", res, want)
		}
	}
	reportHeap := func(b *testing.B, before runtime.MemStats) {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N), "heap-B/op")
		b.ReportMetric(float64(after.HeapSys), "heap-sys-B")
	}

	b.Run("materialized", func(b *testing.B) {
		b.ReportAllocs()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			rows := db.Select(q)
			res, err := agg.Fold(db.Schema, relation.FromTuples(rows))
			check(b, res, err)
		}
		reportHeap(b, before)
	})
	b.Run("lazy", func(b *testing.B) {
		b.ReportAllocs()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			res, err := db.Aggregate(q)
			check(b, res, err)
		}
		reportHeap(b, before)
	})
}

// chainBenchWorld builds the skewed four-source chain world behind
// BenchmarkChainEmptyBase: two car fleets, complaints and recalls, each
// with nulls planted on its constrained attribute so every selection
// generates rewrites.
func chainBenchWorld(b *testing.B) *core.Mediator {
	b.Helper()
	rng := rand.New(rand.NewSource(401))
	mk := func(name string, gd *relation.Relation, nullAttr string, seed int64) (*source.Source, *core.Knowledge) {
		gd.Name = name
		ed, _ := datagen.MakeIncompleteAttr(gd, nullAttr, 0.10, seed)
		src := source.New(name, ed, source.Capabilities{})
		smpl := ed.Sample(ed.Len()/8, rng)
		k, err := core.MineKnowledge(name, smpl,
			float64(ed.Len())/float64(smpl.Len()), smpl.IncompleteFraction(),
			core.KnowledgeConfig{AFD: afd.Config{MinSupport: 5}, Predictor: nbc.PredictorConfig{}})
		if err != nil {
			b.Fatal(err)
		}
		return src, k
	}
	fleetSrc, fleetK := mk("fleet", datagen.Cars(2000, 402), "body_style", 403)
	carsSrc, carsK := mk("cars", datagen.Cars(2000, 404), "body_style", 405)
	compSrc, compK := mk("complaints", datagen.Complaints(2500, 406), "general_component", 407)
	recSrc, recK := mk("recalls", datagen.Recalls(800, 408), "severity", 409)

	m := core.New(core.Config{Alpha: 0.5, K: 8, NoCache: true, CacheSize: -1})
	m.Register(fleetSrc, fleetK)
	m.Register(carsSrc, carsK)
	m.Register(compSrc, compK)
	m.Register(recSrc, recK)
	return m
}

// BenchmarkChainEmptyBase pins what an empty base saves on a four-source
// chain whose last selection is empty. Every base query goes out and every
// adjacency is pair-scored, but no rewrite is sent. BENCH_PR7.json
// recorded 14 queries/op and 2036 tuples/op for this chain when it fetched
// every source's rewrites, and 4 and 977 for the statistics-driven
// planner it had then; the benchmark fails unless the chain reads at most
// 4 queries/op and 977 tuples/op, and unless the selective variant (a
// non-empty last selection) returns answers.
func BenchmarkChainEmptyBase(b *testing.B) {
	m := chainBenchWorld(b)
	names := []string{"fleet", "cars", "complaints", "recalls"}
	pessimal := core.ChainSpec{
		Sources: names,
		Queries: []relation.Query{
			relation.NewQuery("fleet",
				relation.Eq("body_style", relation.String("Sedan")),
				relation.Eq("year", relation.Int(2003))),
			relation.NewQuery("cars",
				relation.Eq("body_style", relation.String("Sedan")),
				relation.Eq("year", relation.Int(2004))),
			relation.NewQuery("complaints", relation.Eq("general_component", relation.String("Electrical System"))),
			relation.NewQuery("recalls", relation.Eq("severity", relation.String("zzz-none"))),
		},
		JoinAttrs: [][2]string{{"model", "model"}, {"model", "model"}, {"general_component", "component"}},
		Alpha:     0.5,
		K:         8,
	}
	selective := pessimal
	selective.Queries = append([]relation.Query(nil), pessimal.Queries...)
	selective.Queries[3] = relation.NewQuery("recalls", relation.Eq("severity", relation.String("severe")))
	if sel, err := m.QueryJoinChainCtx(context.Background(), selective); err != nil || len(sel.Answers) == 0 {
		b.Fatalf("selective variant should produce answers (err=%v)", err)
	}

	totals := func() (queries, tuples int) {
		for _, name := range names {
			src, _ := m.Source(name)
			st := src.Stats()
			queries += st.Queries
			tuples += st.TuplesReturned
		}
		return queries, tuples
	}
	b.ReportAllocs()
	q0, t0 := totals()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.QueryJoinChainCtx(context.Background(), pessimal)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Answers) != 0 {
			b.Fatal("pessimal spec should yield an empty chain")
		}
	}
	b.StopTimer()
	q1, t1 := totals()
	qPerOp := float64(q1-q0) / float64(b.N)
	tPerOp := float64(t1-t0) / float64(b.N)
	b.ReportMetric(qPerOp, "queries/op")
	b.ReportMetric(tPerOp, "tuples/op")
	if qPerOp > 4 || tPerOp > 977 {
		b.Fatalf("an empty base must end the chain: queries/op %.1f (want <= 4), tuples/op %.1f (want <= 977)",
			qPerOp, tPerOp)
	}
}

// loadBenchSteps returns the closed-loop worker counts BenchmarkLoadSLO
// sweeps. QPIAD_LOADBENCH_WORKERS ("16,64") overrides for CI smoke runs.
func loadBenchSteps(b *testing.B) []int {
	env := os.Getenv("QPIAD_LOADBENCH_WORKERS")
	if env == "" {
		return []int{16, 64, 256}
	}
	var steps []int
	for _, part := range strings.Split(env, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			b.Fatalf("bad QPIAD_LOADBENCH_WORKERS %q", env)
		}
		steps = append(steps, n)
	}
	return steps
}

// loadBenchStepDur is each step's run length (QPIAD_LOADBENCH_STEP_MS
// overrides; CI smoke uses a few hundred ms).
func loadBenchStepDur(b *testing.B) time.Duration {
	env := os.Getenv("QPIAD_LOADBENCH_STEP_MS")
	if env == "" {
		return 3 * time.Second
	}
	ms, err := strconv.Atoi(env)
	if err != nil || ms <= 0 {
		b.Fatalf("bad QPIAD_LOADBENCH_STEP_MS %q", env)
	}
	return time.Duration(ms) * time.Millisecond
}

// BenchmarkLoadSLO is the closed-loop SLO benchmark behind BENCH_PR8.json:
// the seeded loadgen mix driven at an in-process qpiad HTTP server at fixed
// concurrency steps, once against an ungated server and once with admission
// control armed at MaxInFlight = GOMAXPROCS. Every cell reports goodput,
// tail latency over successful responses, and the shed rate.
//
// The headline claim is asserted in-bench at the saturating step (workers
// >= 4x the admission bound): with every query forced through the full
// NoCache pipeline, the ungated server lets hundreds of CPU-bound requests
// pile onto GOMAXPROCS cores and its p99 absorbs all that queueing delay,
// while the gated server bounds admitted latency to queue-wait +
// service-time and sheds the rest cheaply. Admission-on must hold p99
// strictly below admission-off while keeping goodput within 10% — protected
// on the client side by workers honoring the shed responses' retry_after
// back-off instead of busy-retrying. Steps below saturation skip the
// assertion (there is no overload to shed) and just report their cells.
func BenchmarkLoadSLO(b *testing.B) {
	ed := benchSample(4000)
	k := benchKnowledge(b, ed)
	med := core.New(core.Config{Alpha: 0, K: 8, NoCache: true, CacheSize: -1})
	med.Register(source.New("cars", ed, source.Capabilities{}), k)

	// MaxInFlight tracks the core count but is floored at 4: on one- and
	// two-core hosts a bound of GOMAXPROCS leaves the single admitted
	// request alone against a shed storm, and goodput gets noisy. A 4-deep
	// pipeline keeps slots busy while still bounding queueing delay two
	// orders below the ungated arm's at 256 workers.
	maxInflight := runtime.GOMAXPROCS(0)
	if maxInflight < 4 {
		maxInflight = 4
	}
	steps := loadBenchSteps(b)
	stepDur := loadBenchStepDur(b)
	arms := []struct {
		name string
		opts []httpapi.Option
	}{
		{"admission-off", nil},
		{"admission-on", []httpapi.Option{httpapi.WithAdmission(httpapi.AdmissionConfig{
			MaxInFlight:  maxInflight,
			MaxQueue:     4 * maxInflight,
			QueueTimeout: 200 * time.Millisecond,
			RetryAfter:   200 * time.Millisecond,
		})}},
	}

	type cell struct {
		goodput float64
		p99ms   float64
		set     bool
	}
	results := make(map[string]cell)

	for _, arm := range arms {
		srv := httptest.NewServer(httpapi.New(med, arm.opts...))
		for _, w := range steps {
			key := fmt.Sprintf("%s/%d", arm.name, w)
			b.Run(fmt.Sprintf("%s/workers=%d", arm.name, w), func(b *testing.B) {
				var rep *loadgen.Report
				for i := 0; i < b.N; i++ {
					r, err := loadgen.Run(context.Background(), loadgen.Config{
						BaseURL:     srv.URL,
						Workers:     w,
						Duration:    stepDur,
						Seed:        77,
						SLO:         250 * time.Millisecond,
						ShedBackoff: 500 * time.Millisecond,
					})
					if err != nil {
						b.Fatal(err)
					}
					rep = r
				}
				if rep.OK == 0 {
					b.Fatal("no successful completions")
				}
				if rep.Errors > 0 {
					b.Fatalf("%d request errors (the harness mix must be clean)", rep.Errors)
				}
				b.ReportMetric(rep.Throughput, "goodput-rps/op")
				b.ReportMetric(float64(rep.Latency.P50Micros)/1e3, "p50-ms/op")
				b.ReportMetric(float64(rep.Latency.P95Micros)/1e3, "p95-ms/op")
				b.ReportMetric(float64(rep.Latency.P99Micros)/1e3, "p99-ms/op")
				b.ReportMetric(float64(rep.TTFA.P50Micros)/1e3, "ttfa-p50-ms/op")
				b.ReportMetric(rep.ShedRate, "shed-rate/op")
				b.ReportMetric(rep.SLOViolationRate, "slo-violation-rate/op")
				results[key] = cell{goodput: rep.Throughput, p99ms: float64(rep.Latency.P99Micros) / 1e3, set: true}
			})
		}
		srv.Close()
	}

	sat := steps[len(steps)-1]
	off := results[fmt.Sprintf("admission-off/%d", sat)]
	on := results[fmt.Sprintf("admission-on/%d", sat)]
	switch {
	case !off.set || !on.set:
		// A -bench filter ran only one arm; nothing to compare.
	case sat < 4*maxInflight:
		b.Logf("saturation assertion skipped: %d workers < 4x the %d-slot admission bound", sat, maxInflight)
	default:
		if on.p99ms >= off.p99ms {
			b.Fatalf("admission must hold tail latency under saturation: p99 on=%.1fms off=%.1fms at %d workers",
				on.p99ms, off.p99ms, sat)
		}
		if on.goodput < 0.9*off.goodput {
			b.Fatalf("admission costs too much goodput: on=%.1f rps off=%.1f rps at %d workers",
				on.goodput, off.goodput, sat)
		}
	}
}

// chaosBenchWindow is the chaos scenario window BenchmarkChaosAvailability
// runs (QPIAD_CHAOS_MS overrides; CI smoke uses ~1500).
func chaosBenchWindow(b *testing.B) time.Duration {
	env := os.Getenv("QPIAD_CHAOS_MS")
	if env == "" {
		// Long enough that the two fixed ~50ms scheduled bounces plus the
		// graceful drain's Shutdown wait fit inside a 1% downtime budget.
		return 30 * time.Second
	}
	ms, err := strconv.Atoi(env)
	if err != nil || ms <= 0 {
		b.Fatalf("bad QPIAD_CHAOS_MS %q", env)
	}
	return time.Duration(ms) * time.Millisecond
}

// chaosBenchMinAvail is the availability floor the benchmark asserts, in
// percent (QPIAD_CHAOS_MIN_AVAIL overrides; shrunken CI windows lower it
// because the two fixed ~50ms downtime gaps weigh more in a short run).
func chaosBenchMinAvail(b *testing.B) float64 {
	env := os.Getenv("QPIAD_CHAOS_MIN_AVAIL")
	if env == "" {
		return 99
	}
	v, err := strconv.ParseFloat(env, 64)
	if err != nil || v <= 0 || v > 100 {
		b.Fatalf("bad QPIAD_CHAOS_MIN_AVAIL %q", env)
	}
	return v
}

// BenchmarkChaosAvailability is the robustness benchmark behind
// BENCH_PR10.json: one full chaos run — seeded loadgen traffic against the
// in-process server while the generated scenario crashes/restores the
// source, flaps faults, kills and drains the server, corrupts and reloads
// knowledge, and skews the clock — with the four invariant oracles armed.
//
// The headline claims are asserted in-bench: every invariant verdict must
// pass (soundness violations in particular must be zero — under chaos the
// mediator may degrade or go stale, but it must never fabricate an
// unflagged answer), and measured availability must stay at or above the
// floor even though the scenario schedules two full server bounces.
func BenchmarkChaosAvailability(b *testing.B) {
	window := chaosBenchWindow(b)
	minAvail := chaosBenchMinAvail(b)
	for i := 0; i < b.N; i++ {
		rep, err := chaos.Run(context.Background(), chaos.Config{
			Seed:     41,
			Scenario: chaos.Generate(41, window),
			Dir:      b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed() {
			b.Fatalf("invariants failed:\n%s\nviolations: %q", rep.Summary(), rep.Violations)
		}
		soundness := 0
		for _, v := range rep.Deterministic.Verdicts {
			if v.Name == chaos.InvSoundness && !v.Passed {
				soundness++
			}
		}
		if soundness != 0 {
			b.Fatalf("degradation soundness violated: %q", rep.Violations)
		}
		if rep.Metrics.AvailabilityPct < minAvail {
			b.Fatalf("availability %.2f%% below the %.2f%% floor (mttr %.0fms over %d outages)",
				rep.Metrics.AvailabilityPct, minAvail, rep.Metrics.MTTRMs, rep.Metrics.Outages)
		}
		b.ReportMetric(rep.Metrics.AvailabilityPct, "availability-pct/op")
		b.ReportMetric(rep.Metrics.MTTRMs, "mttr-ms/op")
		b.ReportMetric(float64(rep.Metrics.Outages), "outages/op")
		b.ReportMetric(float64(rep.Metrics.Probes), "probes/op")
		b.ReportMetric(rep.Metrics.BaselineP95Ms, "baseline-p95-ms/op")
		b.ReportMetric(rep.Metrics.RecoveryP95Ms, "recovery-p95-ms/op")
	}
}
