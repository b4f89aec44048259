package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"qpiad/internal/afd"
	"qpiad/internal/nbc"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// latencyFixture builds the standard fixture with a simulated per-query
// latency and configurable parallelism.
func latencyFixture(t *testing.T, cfg Config, latency time.Duration) *fixture {
	t.Helper()
	gd := buildCarsGD(3000, 1)
	ed, truth := makeIncomplete(gd, "body_style", 0.10, 2)
	src := source.New("cars", ed, source.Capabilities{Latency: latency})
	rng := rand.New(rand.NewSource(3))
	smpl := ed.Sample(500, rng)
	k, err := MineKnowledge("cars", smpl, float64(ed.Len())/float64(smpl.Len()),
		smpl.IncompleteFraction(),
		KnowledgeConfig{AFD: afd.Config{MinSupport: 5}, Predictor: nbc.PredictorConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	m := New(cfg)
	m.Register(src, k)
	return &fixture{gd: gd, ed: ed, truth: truth, src: src, k: k, m: m, sample: smpl,
		idCol: gd.Schema.MustIndex("id")}
}

// TestParallelSameResults verifies that concurrent issuing is a pure
// latency optimization: identical answers, identical order.
func TestParallelSameResults(t *testing.T) {
	q := convtQuery()
	seq := newFixture(t, Config{Alpha: 1, K: 0, Parallel: 1})
	par := newFixture(t, Config{Alpha: 1, K: 0, Parallel: 8})
	rsSeq, err := seq.m.QuerySelectWithCtx(context.Background(), seq.m.Config(), "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	rsPar, err := par.m.QuerySelectWithCtx(context.Background(), par.m.Config(), "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rsSeq.Possible) != len(rsPar.Possible) {
		t.Fatalf("answer counts: %d vs %d", len(rsSeq.Possible), len(rsPar.Possible))
	}
	for i := range rsSeq.Possible {
		if !rsSeq.Possible[i].Tuple.Equal(rsPar.Possible[i].Tuple) {
			t.Fatalf("answer %d differs between sequential and parallel", i)
		}
		if rsSeq.Possible[i].Confidence != rsPar.Possible[i].Confidence {
			t.Fatalf("confidence %d differs", i)
		}
	}
	if len(rsSeq.Issued) != len(rsPar.Issued) {
		t.Fatal("issued counts differ")
	}
}

// TestParallelFasterUnderLatency verifies the wall-clock benefit with a
// simulated 10ms source latency: K=8 queries sequentially cost >= 90ms
// (base + 8 rewrites); with parallelism 8 the rewrites overlap.
func TestParallelFasterUnderLatency(t *testing.T) {
	q := convtQuery()
	const lat = 10 * time.Millisecond

	seq := latencyFixture(t, Config{Alpha: 1, K: 8, Parallel: 1}, lat)
	start := time.Now()
	rsSeq, err := seq.m.QuerySelectWithCtx(context.Background(), seq.m.Config(), "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	seqDur := time.Since(start)

	par := latencyFixture(t, Config{Alpha: 1, K: 8, Parallel: 8}, lat)
	start = time.Now()
	rsPar, err := par.m.QuerySelectWithCtx(context.Background(), par.m.Config(), "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	parDur := time.Since(start)

	if len(rsSeq.Issued) < 3 {
		t.Skipf("too few rewrites (%d) to measure overlap", len(rsSeq.Issued))
	}
	if len(rsPar.Possible) != len(rsSeq.Possible) {
		t.Fatal("parallel changed the answers")
	}
	// Generous margin to stay robust under CI scheduling noise.
	if parDur >= seqDur {
		t.Errorf("parallel (%v) should beat sequential (%v) with %d queries at %v latency",
			parDur, seqDur, len(rsSeq.Issued), lat)
	}
}

// TestSourceLatencyAccounting confirms the latency applies per accepted
// query and rejections stay fast.
func TestSourceLatencyAccounting(t *testing.T) {
	gd := buildCarsGD(100, 5)
	src := source.New("cars", gd, source.Capabilities{Latency: 5 * time.Millisecond})
	start := time.Now()
	if _, err := src.Query(convtQuery()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Errorf("latency not applied: %v", d)
	}
	// A rejected query does not pay the latency.
	start = time.Now()
	if _, err := src.Query(convtQuery().With(relation.IsNull("body_style"))); err == nil {
		t.Fatal("null binding should be rejected")
	}
	if d := time.Since(start); d > 3*time.Millisecond {
		t.Errorf("rejection should be immediate, took %v", d)
	}
}
