package core

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"qpiad/internal/afd"
	"qpiad/internal/nbc"
	"qpiad/internal/qcache"
	"qpiad/internal/relation"
)

// TestAnswerCacheHitSkipsSource proves a repeated identical query is served
// entirely from the cache: the source sees no additional traffic and the
// answer is identical to the cold one.
func TestAnswerCacheHitSkipsSource(t *testing.T) {
	f := newFixture(t, Config{Alpha: 0, K: 10})
	q := convtQuery()

	cold, err := f.m.QuerySelect("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	queriesAfterCold := f.src.Stats().Queries

	warm, err := f.m.QuerySelect("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.src.Stats().Queries; got != queriesAfterCold {
		t.Errorf("warm query reached the source: %d queries, want %d", got, queriesAfterCold)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("cached answer differs from the cold answer")
	}
	st := f.m.CacheStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("cache stats = %+v; want at least one miss (cold) and one hit (warm)", st)
	}

	// The returned ResultSet must be the caller's to mutate: truncating it
	// must not corrupt what the next caller sees.
	warm.Certain = warm.Certain[:0]
	again, err := f.m.QuerySelect("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Certain) != len(cold.Certain) {
		t.Errorf("mutating a returned ResultSet leaked into the cache: %d certain, want %d",
			len(again.Certain), len(cold.Certain))
	}
}

// TestAnswerCacheKeyedByConfig proves different per-query configurations
// never share a cache entry.
func TestAnswerCacheKeyedByConfig(t *testing.T) {
	f := newFixture(t, Config{Alpha: 0, K: 10})
	q := convtQuery()

	rs2, err := f.m.QuerySelectWith(Config{Alpha: 0, K: 2}, "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	rs10, err := f.m.QuerySelectWith(Config{Alpha: 0, K: 10}, "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs2.Issued) >= len(rs10.Issued) {
		t.Fatalf("K=2 issued %d rewrites, K=10 issued %d: configs look conflated",
			len(rs2.Issued), len(rs10.Issued))
	}
	if st := f.m.CacheStats(); st.Misses < 2 {
		t.Errorf("two distinct configs should be two cache misses, got %+v", st)
	}
}

// TestAnswerCacheInvalidatedOnRegister proves re-registering a source drops
// its cached answers: the next query recomputes against the new state.
func TestAnswerCacheInvalidatedOnRegister(t *testing.T) {
	f := newFixture(t, Config{Alpha: 0, K: 10})
	q := convtQuery()

	if _, err := f.m.QuerySelect("cars", q); err != nil {
		t.Fatal(err)
	}
	warmQueries := f.src.Stats().Queries

	// Re-register the same source (e.g. after a knowledge reload).
	f.m.Register(f.src, f.k)
	if _, err := f.m.QuerySelect("cars", q); err != nil {
		t.Fatal(err)
	}
	if got := f.src.Stats().Queries; got <= warmQueries {
		t.Errorf("query after Register was served from stale cache (%d source queries, want > %d)",
			got, warmQueries)
	}
}

// TestAnswerCacheDisabled proves both opt-outs: the per-query NoCache flag
// bypasses a live cache, and CacheSize < 0 disables the cache entirely.
func TestAnswerCacheDisabled(t *testing.T) {
	q := convtQuery()

	f := newFixture(t, Config{Alpha: 0, K: 10})
	if _, err := f.m.QuerySelect("cars", q); err != nil {
		t.Fatal(err)
	}
	warmQueries := f.src.Stats().Queries
	if _, err := f.m.QuerySelectWith(Config{Alpha: 0, K: 10, NoCache: true}, "cars", q); err != nil {
		t.Fatal(err)
	}
	if got := f.src.Stats().Queries; got <= warmQueries {
		t.Error("NoCache query did not reach the source")
	}

	off := newFixture(t, Config{Alpha: 0, K: 10, CacheSize: -1})
	if _, err := off.m.QuerySelect("cars", q); err != nil {
		t.Fatal(err)
	}
	first := off.src.Stats().Queries
	if _, err := off.m.QuerySelect("cars", q); err != nil {
		t.Fatal(err)
	}
	if got := off.src.Stats().Queries; got <= first {
		t.Error("CacheSize=-1 mediator still cached")
	}
	if st := off.m.CacheStats(); st != (qcache.Stats{}) {
		t.Errorf("disabled cache stats = %+v; want zero", st)
	}
}

// TestAnswerCacheConcurrentIdentical fires many identical queries
// concurrently; the cache (plus singleflight) must hold the source traffic
// to one computation's worth, and every response must match the baseline.
func TestAnswerCacheConcurrentIdentical(t *testing.T) {
	f := newFixture(t, Config{Alpha: 0, K: 10})
	q := convtQuery()

	baseline, err := f.m.QuerySelect("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	oneRun := f.src.Stats().Queries

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				rs, err := f.m.QuerySelect("cars", q)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(rs, baseline) {
					errs <- errMismatch
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := f.src.Stats().Queries; got != oneRun {
		t.Errorf("concurrent identical queries reached the source: %d queries, want %d", got, oneRun)
	}
}

var errMismatch = errString("concurrent response differs from baseline")

type errString string

func (e errString) Error() string { return string(e) }

// TestParallelMiningEquivalence proves mining with a worker pool produces
// knowledge identical to sequential mining: same AFDs, same predictions,
// byte-identical persisted form.
func TestParallelMiningEquivalence(t *testing.T) {
	gd := buildCarsGD(4000, 7)
	ed, _ := makeIncomplete(gd, "body_style", 0.10, 8)
	smpl := ed.Sample(600, rand.New(rand.NewSource(9)))
	ratio := float64(ed.Len()) / float64(smpl.Len())

	mine := func(workers int) *Knowledge {
		t.Helper()
		k, err := MineKnowledge("cars", smpl, ratio, smpl.IncompleteFraction(), KnowledgeConfig{
			AFD:       afd.Config{MinSupport: 5},
			Predictor: nbc.PredictorConfig{},
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	seq, par := mine(1), mine(4)

	if !reflect.DeepEqual(seq.AFDs, par.AFDs) {
		t.Error("parallel TANE mining produced different AFDs than sequential")
	}
	if len(seq.Predictors) != len(par.Predictors) {
		t.Fatalf("predictor count differs: %d vs %d", len(seq.Predictors), len(par.Predictors))
	}
	// Same predictions on every attribute for a probe evidence set drawn
	// from the sample itself.
	probe := smpl.Tuple(0)
	for attr, sp := range seq.Predictors {
		pp, ok := par.Predictors[attr]
		if !ok {
			t.Errorf("attribute %s trained sequentially but not in parallel", attr)
			continue
		}
		ev := map[string]relation.Value{}
		for i, a := range smpl.Schema.Attrs() {
			if a.Name != attr && !probe[i].IsNull() {
				ev[a.Name] = probe[i]
			}
		}
		if !reflect.DeepEqual(sp.PredictEvidence(ev), pp.PredictEvidence(ev)) {
			t.Errorf("attribute %s: parallel and sequential predictors disagree", attr)
		}
	}

	// Persisted form must be byte-identical (Workers is not serialized).
	var sb, pb bytes.Buffer
	if err := seq.Save(&sb, KnowledgeConfig{AFD: afd.Config{MinSupport: 5}, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := par.Save(&pb, KnowledgeConfig{AFD: afd.Config{MinSupport: 5}, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Error("persisted knowledge differs between sequential and parallel mining")
	}
}

// TestCachedAnswersNeverAliasStore is the aliasing audit for the lazy
// pipeline: Relation.Select hands out store-aliasing tuples, but every
// tuple must cross the source wall as a copy, so a caller mutating a
// ResultSet's tuples can corrupt neither the backing relation nor what a
// later cached call returns. Every entry point that returns tuples is
// audited: batch select, the stream, the two-way join, the chain and the
// correlated select.
func TestCachedAnswersNeverAliasStore(t *testing.T) {
	f := newFixture(t, Config{Alpha: 0, K: 5})
	q := convtQuery()
	pristine := f.ed.Clone()

	cold, err := f.m.QuerySelect("cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Certain) == 0 {
		t.Fatal("fixture query returned no certain answers")
	}
	checkStoreWall(t, "batch select", answerTuples(cold.AllAnswers()), f.ed)
	// Note: tuples ARE shared between the cached master and its shallow
	// clones — the documented ResultSet.clone contract (callers sort, trim
	// and project; Project builds fresh tuples). The guarantee under test
	// is the store wall: no answer tuple aliases the relation's backing
	// store, because Source.Fetch copies at the wire boundary.
	if f.ed.Count(q) != pristine.Count(q) {
		t.Error("source relation answers changed after caller mutation")
	}

	events, err := f.m.SelectStream(context.Background(), "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []relation.Tuple
	for ev := range events {
		for _, a := range ev.Answers {
			streamed = append(streamed, a.Tuple)
		}
	}
	checkStoreWall(t, "stream", streamed, f.ed)

	jf := newJoinFixture(t, Config{Alpha: 0, K: 10})
	jres, err := jf.m.QueryJoin(joinSpec(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	var joined []relation.Tuple
	for _, a := range jres.Answers {
		joined = append(joined, a.Left, a.Right)
	}
	checkStoreWall(t, "two-way join", joined, jf.ed, jf.complaintsED)

	cf := newChainFixture(t)
	cres, err := cf.m.QueryJoinChain(pairChainSpec(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	var chained []relation.Tuple
	for _, a := range cres.Answers {
		chained = append(chained, a.Tuples...)
	}
	checkStoreWall(t, "chain", chained, cf.cars, cf.comp)

	xf, ysrc, _ := newCorrelatedFixture(t, Config{Alpha: 0, K: 10})
	xrs, err := xf.m.QuerySelectCorrelated("yahoo",
		relation.NewQuery("gs", relation.Eq("body_style", relation.String("Convt"))))
	if err != nil {
		t.Fatal(err)
	}
	checkStoreWall(t, "correlated", answerTuples(xrs.AllAnswers()), ysrc.Relation())
}

// answerTuples lists the answers' tuples in order.
func answerTuples(answers []Answer) []relation.Tuple {
	out := make([]relation.Tuple, len(answers))
	for i, a := range answers {
		out[i] = a.Tuple
	}
	return out
}

// checkStoreWall audits one entry point's answer tuples against the store
// wall: appending to the first leaves every other answer as it was, and
// overwriting them all leaves every store as it was.
func checkStoreWall(t *testing.T, entry string, answers []relation.Tuple, stores ...*relation.Relation) {
	t.Helper()
	if len(answers) < 2 {
		t.Fatalf("%s: scenario needs two answers, got %d", entry, len(answers))
	}
	pristine := make([]*relation.Relation, len(stores))
	for i, r := range stores {
		pristine[i] = r.Clone()
	}
	before := make([]relation.Tuple, len(answers))
	for i, a := range answers {
		before[i] = a.Clone()
	}
	_ = append(answers[0], relation.String("appended"))
	for i := 1; i < len(answers); i++ {
		if !reflect.DeepEqual(answers[i], before[i]) {
			t.Fatalf("%s: appending to answer 0 changed answer %d", entry, i)
		}
	}
	for _, a := range answers {
		for c := range a {
			a[c] = relation.Null()
		}
	}
	for si, r := range stores {
		for i := 0; i < r.Len(); i++ {
			if !reflect.DeepEqual(r.Tuple(i), pristine[si].Tuple(i)) {
				t.Fatalf("%s: mutating answer tuples corrupted store %s tuple %d", entry, r.Name, i)
			}
		}
	}
}

// TestBatchSelectIgnoresTopN pins that batch select returns every answer
// whatever cfg.TopN says, on a cache miss and on the hit that follows.
// TopN bounds streams only and answerKey leaves it out, so a batch run
// that honoured it would cache a truncated answer for every later caller.
func TestBatchSelectIgnoresTopN(t *testing.T) {
	f := newFixture(t, Config{Alpha: 1, K: 10})
	q := convtQuery()
	full, err := f.m.QuerySelectWith(Config{Alpha: 1, K: 10, NoCache: true}, "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Possible) < 2 || len(full.Issued) < 2 {
		t.Fatalf("scenario needs more than one possible answer and rewrite, got %d and %d",
			len(full.Possible), len(full.Issued))
	}
	cfg := Config{Alpha: 1, K: 10, TopN: 1}
	for _, call := range []string{"miss", "hit"} {
		rs, err := f.m.QuerySelectWith(cfg, "cars", q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rs, full) {
			t.Errorf("%s with TopN=1 differs from TopN=0: %d possible, %d issued; want %d and %d",
				call, len(rs.Possible), len(rs.Issued), len(full.Possible), len(full.Issued))
		}
	}
	if st := f.m.CacheStats(); st.Hits != 1 {
		t.Errorf("cache hits = %d, want 1", st.Hits)
	}
}
