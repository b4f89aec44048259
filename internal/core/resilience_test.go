package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"qpiad/internal/afd"
	"qpiad/internal/faults"
	"qpiad/internal/leakcheck"
	"qpiad/internal/nbc"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// fastRetry keeps retry tests quick: microsecond backoffs.
func fastRetry(maxAttempts int) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: maxAttempts,
		BaseBackoff: 100 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
	}
}

// faultyFixture is the standard fixture with a fault injector attached to
// the source.
func faultyFixture(t *testing.T, cfg Config, p faults.Profile) *fixture {
	t.Helper()
	gd := buildCarsGD(3000, 1)
	ed, truth := makeIncomplete(gd, "body_style", 0.10, 2)
	src := source.New("cars", ed, source.Capabilities{})
	if p.Enabled() {
		src.SetFaults(faults.New(p))
	}
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

// degradationSeed is a fault seed (hunted once, fixed forever) under which,
// at a 30% transient rate with 2 attempts per query, the base query
// succeeds, at least one rewrite fails permanently and at least one
// succeeds — the graceful-degradation scenario of the acceptance test.
const degradationSeed = 5

// TestGracefulDegradation is the acceptance scenario: a 30% transient-error
// source still yields all certain answers plus the recoverable possible
// answers; the result is flagged Degraded; every issued rewrite — including
// the failures — is accounted in Issued.
func TestGracefulDegradation(t *testing.T) {
	profile := faults.Profile{Seed: degradationSeed, TransientRate: 0.3}
	cfg := Config{Alpha: 1, K: 10, Parallel: 4, Retry: fastRetry(2)}

	clean := faultyFixture(t, Config{Alpha: 1, K: 10}, faults.Profile{})
	rsClean, err := clean.m.QuerySelect("cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}

	f := faultyFixture(t, cfg, profile)
	rs, err := f.m.QuerySelect("cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}

	// All certain answers survive (the base query got through, retried as
	// needed).
	if len(rs.Certain) != len(rsClean.Certain) {
		t.Fatalf("certain answers: %d with faults vs %d clean", len(rs.Certain), len(rsClean.Certain))
	}
	for i := range rs.Certain {
		if !rs.Certain[i].Tuple.Equal(rsClean.Certain[i].Tuple) {
			t.Fatalf("certain answer %d differs under faults", i)
		}
	}

	// The scenario must actually exercise degradation: some rewrites fail,
	// some succeed. (If this trips after a rewrite-layer change, re-hunt
	// degradationSeed.)
	var failed, succeeded int
	for _, rq := range rs.Issued {
		if rq.Err != nil {
			failed++
			if rq.Attempts != 2 {
				t.Errorf("failed rewrite %s: Attempts = %d, want 2 (exhausted)", rq.Query, rq.Attempts)
			}
			if !faults.Retryable(rq.Err) {
				t.Errorf("failed rewrite %s carries non-retryable error %v", rq.Query, rq.Err)
			}
		} else {
			succeeded++
		}
	}
	if failed == 0 || succeeded == 0 {
		t.Fatalf("degradation scenario needs both failures and successes, got %d/%d — re-hunt degradationSeed",
			failed, succeeded)
	}
	if !rs.Degraded {
		t.Error("ResultSet.Degraded must be set when rewrites fail")
	}
	// Every chosen rewrite is accounted, failures included.
	if len(rs.Issued) != len(rsClean.Issued) {
		t.Errorf("issued accounting: %d with faults vs %d clean — failures must not vanish",
			len(rs.Issued), len(rsClean.Issued))
	}
	// Recovered possible answers are a subset of the clean run's, in the
	// same precision order.
	cleanKeys := make(map[string]bool, len(rsClean.Possible))
	for _, a := range rsClean.Possible {
		cleanKeys[a.Tuple.Key()] = true
	}
	for _, a := range rs.Possible {
		if !cleanKeys[a.Tuple.Key()] {
			t.Errorf("possible answer %s not in the fault-free result", a.Tuple)
		}
	}
	if len(rs.Possible) == 0 {
		t.Error("recoverable possible answers should survive degradation")
	}
}

// TestDegradationReproducible runs the degradation scenario twice from
// scratch (same seeds, parallel issuing) and requires byte-for-byte
// identical results.
func TestDegradationReproducible(t *testing.T) {
	render := func() string {
		profile := faults.Profile{Seed: degradationSeed, TransientRate: 0.3}
		cfg := Config{Alpha: 1, K: 10, Parallel: 4, Retry: fastRetry(2)}
		f := faultyFixture(t, cfg, profile)
		rs, err := f.m.QuerySelect("cars", convtQuery())
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v\nstats=%+v\nfaults=%+v", rs, f.src.Stats(), f.src.Faults().Stats())
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("two same-seed runs differ:\n--- run 1 ---\n%.2000s\n--- run 2 ---\n%.2000s", a, b)
	}
}

// TestRetryRecovery forces every query's first two attempts to fail: with
// three attempts allowed, the answers must match the fault-free run exactly
// and retries must never double-count transferred tuples.
func TestRetryRecovery(t *testing.T) {
	clean := faultyFixture(t, Config{Alpha: 1, K: 8}, faults.Profile{})
	rsClean, err := clean.m.QuerySelect("cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}

	f := faultyFixture(t, Config{Alpha: 1, K: 8, Retry: fastRetry(3)},
		faults.Profile{Seed: 1, FailFirstAttempts: 2})
	rs, err := f.m.QuerySelect("cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Degraded {
		t.Error("full recovery must not be flagged Degraded")
	}
	if len(rs.Possible) != len(rsClean.Possible) || len(rs.Certain) != len(rsClean.Certain) {
		t.Fatalf("recovered answers differ: %d/%d vs clean %d/%d",
			len(rs.Certain), len(rs.Possible), len(rsClean.Certain), len(rsClean.Possible))
	}
	for i := range rs.Possible {
		if !rs.Possible[i].Tuple.Equal(rsClean.Possible[i].Tuple) {
			t.Fatalf("possible answer %d differs after retry recovery", i)
		}
	}
	for _, rq := range rs.Issued {
		if rq.Attempts != 3 {
			t.Errorf("rewrite %s: Attempts = %d, want 3", rq.Query, rq.Attempts)
		}
	}

	st, stClean := f.src.Stats(), clean.src.Stats()
	queries := 1 + len(rs.Issued) // base + rewrites
	if st.Queries != 3*queries {
		t.Errorf("Queries = %d, want %d (3 attempts each)", st.Queries, 3*queries)
	}
	if st.Retries != 2*queries {
		t.Errorf("Retries = %d, want %d", st.Retries, 2*queries)
	}
	if st.Errors != 2*queries {
		t.Errorf("Errors = %d, want %d", st.Errors, 2*queries)
	}
	// The property: retries transfer nothing extra.
	if st.TuplesReturned != stClean.TuplesReturned {
		t.Errorf("TuplesReturned = %d with retries vs %d clean — double counting",
			st.TuplesReturned, stClean.TuplesReturned)
	}
}

// TestAccountingInvariant is a property test over many fault seeds: for
// every run, accepted attempts equal the sum of per-query attempts, and
// transferred tuples equal the sum of successfully fetched row counts —
// i.e. failed attempts and retries never leak into the transfer accounting.
func TestAccountingInvariant(t *testing.T) {
	q := convtQuery()
	for seed := int64(1); seed <= 20; seed++ {
		f := faultyFixture(t, Config{Alpha: 1, K: 8, Retry: fastRetry(5)},
			faults.Profile{Seed: seed, TransientRate: 0.3})
		rs, err := f.m.QuerySelect("cars", q)
		if err != nil {
			// The base query failed all 5 attempts (possible at ~0.24% per
			// seed); the invariant still holds but there is no ResultSet to
			// check against.
			continue
		}
		st := f.src.Stats()
		wantTuples := len(rs.Certain) // base rows
		attempts := 0
		for _, rq := range rs.Issued {
			attempts += rq.Attempts
			if rq.Err == nil {
				wantTuples += rq.Transferred
			}
		}
		if st.TuplesReturned != wantTuples {
			t.Errorf("seed %d: TuplesReturned = %d, want %d (base + successful transfers)",
				seed, st.TuplesReturned, wantTuples)
		}
		baseAttempts := st.Queries - attempts
		if baseAttempts < 1 || baseAttempts > 5 {
			t.Errorf("seed %d: Queries = %d vs issued attempts %d — base attempts %d out of range",
				seed, st.Queries, attempts, baseAttempts)
		}
		if st.Retries != st.Queries-(1+len(rs.Issued)) {
			t.Errorf("seed %d: Retries = %d, want Queries (%d) minus first attempts (%d)",
				seed, st.Retries, st.Queries, 1+len(rs.Issued))
		}
	}
}

// budgetFixture builds a fixture whose source accepts only the first n
// queries.
func budgetFixture(t *testing.T, cfg Config, budget int) *fixture {
	t.Helper()
	gd := buildCarsGD(3000, 1)
	ed, truth := makeIncomplete(gd, "body_style", 0.10, 2)
	src := source.New("cars", ed, source.Capabilities{MaxQueries: budget})
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

// TestBudgetEarlyStop verifies that once the source refuses a query for
// budget exhaustion, the mediator stops issuing: exactly one refusal is
// recorded and the rest are skipped without touching the source — in the
// sequential and the parallel path alike, with identical results.
func TestBudgetEarlyStop(t *testing.T) {
	const budget = 2 // base + 1 rewrite, then exhausted
	q := convtQuery()

	run := func(parallel int) (*ResultSet, source.Stats) {
		f := budgetFixture(t, Config{Alpha: 1, K: 10, Parallel: parallel}, budget)
		rs, err := f.m.QuerySelect("cars", q)
		if err != nil {
			t.Fatal(err)
		}
		return rs, f.src.Stats()
	}

	for _, parallel := range []int{1, 4} {
		rs, st := run(parallel)
		if len(rs.Issued) <= budget-1 {
			t.Fatalf("parallel=%d: scenario needs more chosen rewrites (%d) than budget leaves (%d)",
				parallel, len(rs.Issued), budget-1)
		}
		if st.Rejected != 1 {
			t.Errorf("parallel=%d: Rejected = %d, want exactly 1 (early stop)", parallel, st.Rejected)
		}
		if st.Queries != budget {
			t.Errorf("parallel=%d: Queries = %d, want the full budget %d", parallel, st.Queries, budget)
		}
		if !rs.Degraded {
			t.Errorf("parallel=%d: budget exhaustion must degrade the result", parallel)
		}
		succeeded, failed := 0, 0
		for _, rq := range rs.Issued {
			if rq.Err == nil {
				succeeded++
				continue
			}
			failed++
			if !errors.Is(rq.Err, source.ErrQueryBudget) {
				t.Errorf("parallel=%d: failed rewrite error %v should classify as budget", parallel, rq.Err)
			}
		}
		if succeeded != budget-1 {
			t.Errorf("parallel=%d: %d rewrites succeeded, want %d (budget minus base)",
				parallel, succeeded, budget-1)
		}
		if failed != len(rs.Issued)-succeeded {
			t.Errorf("parallel=%d: issued accounting inconsistent", parallel)
		}
	}

	// Budget consumption is deterministic: the parallel run funds the same
	// rewrites as the sequential one.
	rsSeq, _ := run(1)
	rsPar, _ := run(4)
	if len(rsSeq.Issued) != len(rsPar.Issued) {
		t.Fatal("issued counts differ between sequential and parallel")
	}
	for i := range rsSeq.Issued {
		if (rsSeq.Issued[i].Err == nil) != (rsPar.Issued[i].Err == nil) {
			t.Fatalf("rewrite %d funded differently: seq err=%v par err=%v",
				i, rsSeq.Issued[i].Err, rsPar.Issued[i].Err)
		}
	}
	if len(rsSeq.Possible) != len(rsPar.Possible) {
		t.Fatalf("answers differ under budget: %d vs %d", len(rsSeq.Possible), len(rsPar.Possible))
	}
}

// TestParallelFaultsUnderRace exercises the parallel fetch path with
// injected faults and retries (run under -race) and checks determinism
// across parallelism degrees.
func TestParallelFaultsUnderRace(t *testing.T) {
	q := convtQuery()
	profile := faults.Profile{Seed: 11, TransientRate: 0.3}
	shape := func(parallel int) string {
		f := faultyFixture(t, Config{Alpha: 1, K: 10, Parallel: parallel, Retry: fastRetry(2)}, profile)
		rs, err := f.m.QuerySelect("cars", q)
		if err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("certain=%d possible=%d degraded=%v\n", len(rs.Certain), len(rs.Possible), rs.Degraded)
		for _, rq := range rs.Issued {
			out += fmt.Sprintf("%s attempts=%d err=%v transferred=%d\n", rq.Query, rq.Attempts, rq.Err, rq.Transferred)
		}
		return out
	}
	seq := shape(1)
	for _, parallel := range []int{2, 8} {
		if got := shape(parallel); got != seq {
			t.Errorf("parallel=%d result differs from sequential:\n%s\nvs\n%s", parallel, got, seq)
		}
	}
}

// TestQuerySelectWithConcurrent proves per-call configs don't bleed:
// concurrent queries with different α/K match their serial baselines.
func TestQuerySelectWithConcurrent(t *testing.T) {
	f := newFixture(t, Config{Alpha: 0, K: 10})
	q := convtQuery()
	cfgA := Config{Alpha: 0, K: 1}
	cfgB := Config{Alpha: 2, K: 10}

	baseline := func(cfg Config) *ResultSet {
		rs, err := f.m.QuerySelectWith(cfg, "cars", q)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	wantA, wantB := baseline(cfgA), baseline(cfgB)
	if len(wantA.Issued) == len(wantB.Issued) {
		t.Fatal("configs should produce different rewrite counts for the test to mean anything")
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 8; i++ {
		cfg, want := cfgA, wantA
		if i%2 == 1 {
			cfg, want = cfgB, wantB
		}
		wg.Add(1)
		go func(cfg Config, want *ResultSet) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				rs, err := f.m.QuerySelectWith(cfg, "cars", q)
				if err != nil {
					errs <- err.Error()
					return
				}
				if len(rs.Issued) != len(want.Issued) || len(rs.Possible) != len(want.Possible) {
					errs <- fmt.Sprintf("config bled: got %d issued/%d possible, want %d/%d",
						len(rs.Issued), len(rs.Possible), len(want.Issued), len(want.Possible))
					return
				}
			}
		}(cfg, want)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// The shared config is untouched throughout.
	if f.m.Config().K != 10 || f.m.Config().Alpha != 0 {
		t.Errorf("shared config mutated: %+v", f.m.Config())
	}
}

// keptRows is what a fake source returns for rows under keep: the rows
// keep accepts, all of them when keep is nil.
func keptRows(rows []relation.Tuple, keep func(relation.Tuple) bool) []relation.Tuple {
	if keep == nil {
		return rows
	}
	var out []relation.Tuple
	for _, t := range rows {
		if keep(t) {
			out = append(out, t)
		}
	}
	return out
}

// queryableFunc adapts a function to the queryable interface.
type queryableFunc func(context.Context, relation.Query) ([]relation.Tuple, error)

func (f queryableFunc) Fetch(ctx context.Context, q relation.Query, keep func(relation.Tuple) bool) ([]relation.Tuple, int, error) {
	rows, err := f(ctx, q)
	return keptRows(rows, keep), len(rows), err
}

// TestFetchOneKeep pins the attempt contract: one successful attempt is one
// source call, fetchOne hands its keep to the source, and it returns the
// kept rows with the source's count of transferred tuples.
func TestFetchOneKeep(t *testing.T) {
	calls := 0
	src := queryableFunc(func(context.Context, relation.Query) ([]relation.Tuple, error) {
		calls++
		return []relation.Tuple{{relation.String("x")}, {relation.Null()}}, nil
	})
	keep := func(tu relation.Tuple) bool { return tu[0].IsNull() }

	res := fetchOne(context.Background(), src, convtQuery(), keep, fastRetry(3))
	if res.err != nil || len(res.rows) != 1 || !res.rows[0][0].IsNull() || res.transferred != 2 {
		t.Fatalf("fetch = %v rows, %d transferred, err %v; want the null row of 2 transferred",
			res.rows, res.transferred, res.err)
	}
	if calls != 1 || res.attempts != 1 {
		t.Errorf("source calls = %d, attempts = %d; want 1 and 1", calls, res.attempts)
	}
}

// TestFetchOneDeadline verifies the per-query deadline stops retrying.
func TestFetchOneDeadline(t *testing.T) {
	src := source.New("cars", buildCarsGD(100, 5), source.Capabilities{})
	src.SetFaults(faults.New(faults.Profile{Seed: 1, FailFirstAttempts: 100}))
	pol := RetryPolicy{
		MaxAttempts:   50,
		BaseBackoff:   20 * time.Millisecond,
		MaxBackoff:    20 * time.Millisecond,
		QueryDeadline: 50 * time.Millisecond,
	}
	start := time.Now()
	res := fetchOne(context.Background(), src, convtQuery(), nil, pol)
	elapsed := time.Since(start)
	if res.err == nil {
		t.Fatal("expected failure under permanent faults")
	}
	if res.attempts >= 50 {
		t.Errorf("deadline should stop retries early, made %d attempts", res.attempts)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("deadline not honored: ran %v", elapsed)
	}
}

// TestFetchOneAttemptTimeout verifies injected timeouts consume exactly the
// per-attempt deadline and are retried.
func TestFetchOneAttemptTimeout(t *testing.T) {
	src := source.New("cars", buildCarsGD(100, 5), source.Capabilities{})
	src.SetFaults(faults.New(faults.Profile{Seed: 2, TimeoutRate: 1}))
	pol := fastRetry(3)
	pol.AttemptTimeout = 20 * time.Millisecond
	start := time.Now()
	res := fetchOne(context.Background(), src, convtQuery(), nil, pol)
	elapsed := time.Since(start)
	if !errors.Is(res.err, faults.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", res.err)
	}
	if res.attempts != 3 {
		t.Errorf("attempts = %d, want 3", res.attempts)
	}
	if elapsed < 60*time.Millisecond {
		t.Errorf("three timed-out attempts should cost >= 3 deadlines, took %v", elapsed)
	}
	if st := src.Stats(); st.Errors != 3 {
		t.Errorf("Errors = %d, want 3", st.Errors)
	}
}

// recordingSource wraps a source and records the order Fetch calls
// arrive in (by the id each query selects) and the peak number in flight.
// The wrapped source signals admission as usual; each call then holds for
// a short sleep, so calls the engine lets overlap do overlap.
type recordingSource struct {
	src      *source.Source
	hold     time.Duration
	mu       sync.Mutex
	inFlight int
	peak     int
	order    []int64
}

func (r *recordingSource) Fetch(ctx context.Context, q relation.Query, keep func(relation.Tuple) bool) ([]relation.Tuple, int, error) {
	r.mu.Lock()
	r.inFlight++
	r.peak = max(r.peak, r.inFlight)
	r.order = append(r.order, q.Preds[0].Value.IntVal())
	r.mu.Unlock()
	rows, n, err := r.src.Fetch(ctx, q, keep)
	time.Sleep(r.hold)
	r.mu.Lock()
	r.inFlight--
	r.mu.Unlock()
	return rows, n, err
}

// panickingSource is a queryable whose Fetch panics.
type panickingSource struct{}

func (panickingSource) Fetch(context.Context, relation.Query, func(relation.Tuple) bool) ([]relation.Tuple, int, error) {
	panic("fetch exploded")
}

// TestFetchEnginePanicReachesCaller checks that a worker's panic does not
// end the process from the worker's goroutine: result and wait re-raise it
// on the caller's, and once wait returns no engine goroutine is left.
func TestFetchEnginePanicReachesCaller(t *testing.T) {
	queries := make([]relation.Query, 4)
	for i := range queries {
		queries[i] = relation.NewQuery("cars", relation.Eq("id", relation.Int(int64(i))))
	}
	recovered := func(call func()) (p any) {
		defer func() { p = recover() }()
		call()
		return nil
	}
	snap := leakcheck.Take()
	f := startFetch(context.Background(), panickingSource{}, queries, nil, 2, fastRetry(1))
	if p := recovered(func() { f.result(1) }); p != "fetch exploded" {
		t.Errorf("result re-raised %v, want the worker's panic", p)
	}
	if p := recovered(f.wait); p != "fetch exploded" {
		t.Errorf("wait re-raised %v, want the worker's panic", p)
	}
	if leaks := snap.Check(); len(leaks) > 0 {
		t.Errorf("engine goroutines left after wait: %v", leaks)
	}
}

// TestFetchEngineBound pins the engine's concurrency bound: at Parallel 0
// and 1 one query runs at a time, in index order; at Parallel 3 queries
// overlap but never more than 3 at once. Results stay positional.
func TestFetchEngineBound(t *testing.T) {
	gd := buildCarsGD(100, 5)
	idCol := gd.Schema.MustIndex("id")
	queries := make([]relation.Query, 10)
	for i := range queries {
		queries[i] = relation.NewQuery("cars", relation.Eq("id", relation.Int(int64(i))))
	}
	for _, tc := range []struct{ parallel, minPeak, maxPeak int }{
		{0, 1, 1}, {1, 1, 1}, {3, 2, 3},
	} {
		rec := &recordingSource{src: source.New("cars", gd, source.Capabilities{}), hold: 5 * time.Millisecond}
		results := fetchAll(context.Background(), rec, queries, nil, tc.parallel, fastRetry(1))
		for i, res := range results {
			if res.err != nil || len(res.rows) != 1 || res.rows[0][idCol].IntVal() != int64(i) {
				t.Fatalf("parallel=%d: result %d = %d rows, err %v; want the row with id %d",
					tc.parallel, i, len(res.rows), res.err, i)
			}
		}
		if rec.peak < tc.minPeak || rec.peak > tc.maxPeak {
			t.Errorf("parallel=%d: peak in-flight = %d, want %d..%d", tc.parallel, rec.peak, tc.minPeak, tc.maxPeak)
		}
		if tc.maxPeak == 1 {
			for i, id := range rec.order {
				if id != int64(i) {
					t.Fatalf("parallel=%d: call %d selected id %d; calls out of index order: %v",
						tc.parallel, i, id, rec.order)
				}
			}
		}
	}
}
