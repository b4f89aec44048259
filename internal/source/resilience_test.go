package source

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"qpiad/internal/faults"
	"qpiad/internal/relation"
)

func bmwQuery() relation.Query {
	return relation.NewQuery("cars", relation.Eq("make", relation.String("BMW")))
}

// TestFaultInjectionAttemptSemantics verifies forced first-attempt failures
// are dealt per the context's attempt tag and succeed past the threshold.
func TestFaultInjectionAttemptSemantics(t *testing.T) {
	src := New("cars", carRel(), Capabilities{})
	src.SetFaults(faults.New(faults.Profile{Seed: 1, FailFirstAttempts: 2}))

	for attempt := 1; attempt <= 2; attempt++ {
		ctx := faults.WithAttempt(context.Background(), attempt)
		if _, err := src.QueryCtx(ctx, bmwQuery()); !errors.Is(err, faults.ErrTransient) {
			t.Fatalf("attempt %d: want ErrTransient, got %v", attempt, err)
		}
	}
	rows, err := src.QueryCtx(faults.WithAttempt(context.Background(), 3), bmwQuery())
	if err != nil {
		t.Fatalf("attempt 3: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}

	st := src.Stats()
	// All three attempts were accepted (Queries), two failed (Errors), two
	// carried attempt > 1 (Retries), and only the success transferred rows.
	if st.Queries != 3 || st.Errors != 2 || st.Retries != 2 || st.TuplesReturned != 2 {
		t.Errorf("stats = %+v, want Queries 3, Errors 2, Retries 2, Tuples 2", st)
	}
	if st.Rejected != 0 {
		t.Errorf("failed attempts must not count as Rejected, got %d", st.Rejected)
	}
}

// TestContextCancellationDuringLatency verifies a context deadline shorter
// than the source latency aborts the query and counts an error.
func TestContextCancellationDuringLatency(t *testing.T) {
	src := New("cars", carRel(), Capabilities{Latency: 200 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := src.QueryCtx(ctx, bmwQuery())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("cancellation should interrupt the latency sleep, took %v", d)
	}
	st := src.Stats()
	if st.Queries != 1 || st.Errors != 1 || st.TuplesReturned != 0 {
		t.Errorf("stats = %+v, want one accepted errored query", st)
	}
}

// TestTimeoutFaultBlocksUntilDeadline verifies the injected-timeout
// semantics: with a deadline the attempt pays the full wait, without one it
// fails immediately.
func TestTimeoutFaultBlocksUntilDeadline(t *testing.T) {
	src := New("cars", carRel(), Capabilities{})
	src.SetFaults(faults.New(faults.Profile{Seed: 1, TimeoutRate: 1}))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := src.QueryCtx(ctx, bmwQuery())
	if !errors.Is(err, faults.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("timed-out attempt should block until its deadline, returned after %v", d)
	}

	// No deadline: immediate ErrTimeout.
	start = time.Now()
	if _, err := src.QueryCtx(context.Background(), bmwQuery()); !errors.Is(err, faults.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Errorf("deadline-less timeout should fail fast, took %v", d)
	}
}

// TestFaultTruncation verifies page truncation caps the result rows and
// still accounts the transferred tuples.
func TestFaultTruncation(t *testing.T) {
	src := New("cars", carRel(), Capabilities{})
	src.SetFaults(faults.New(faults.Profile{Seed: 1, TruncateRate: 1, TruncateTo: 1}))
	rows, err := src.Query(bmwQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want truncation to 1", len(rows))
	}
	if st := src.Stats(); st.TuplesReturned != 1 {
		t.Errorf("TuplesReturned = %d, want 1", st.TuplesReturned)
	}
}

// TestAdmitSignalOnlyOnAcceptance verifies the admission callback fires for
// accepted queries (even ones that later fail) and never for rejections.
func TestAdmitSignalOnlyOnAcceptance(t *testing.T) {
	src := New("cars", carRel(), Capabilities{})
	admits := 0
	ctx := WithAdmitSignal(context.Background(), func() { admits++ })

	if _, err := src.QueryCtx(ctx, bmwQuery()); err != nil {
		t.Fatal(err)
	}
	if admits != 1 {
		t.Fatalf("admits = %d after accepted query, want 1", admits)
	}

	// Rejection (null binding refused): no signal. Use a fresh signal so
	// the sync.Once from the first call doesn't mask a bug.
	admits = 0
	ctx = WithAdmitSignal(context.Background(),
		func() { admits++ })
	bad := relation.NewQuery("cars", relation.IsNull("body_style"))
	if _, err := src.QueryCtx(ctx, bad); !errors.Is(err, ErrNullBinding) {
		t.Fatalf("want ErrNullBinding, got %v", err)
	}
	if admits != 0 {
		t.Fatalf("admits = %d after rejection, want 0", admits)
	}

	// An accepted-but-failed attempt still signals: budget was consumed.
	admits = 0
	src.SetFaults(faults.New(faults.Profile{Seed: 1, FailFirstAttempts: 1}))
	ctx = WithAdmitSignal(context.Background(), func() { admits++ })
	if _, err := src.QueryCtx(ctx, bmwQuery()); !errors.Is(err, faults.ErrTransient) {
		t.Fatalf("want ErrTransient, got %v", err)
	}
	if admits != 1 {
		t.Fatalf("admits = %d after accepted failing query, want 1", admits)
	}
}

// TestStatsConcurrent hammers one source from many goroutines (run under
// -race) and checks the totals add up exactly.
func TestStatsConcurrent(t *testing.T) {
	src := New("cars", carRel(), Capabilities{})
	src.SetFaults(faults.New(faults.Profile{Seed: 9, TransientRate: 0.5}))
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := relation.NewQuery("cars", relation.Eq("year", relation.Int(int64(2001+(w+i)%4))))
				_, _ = src.QueryCtx(context.Background(), q)
			}
		}(w)
	}
	wg.Wait()
	st := src.Stats()
	mt := src.Metrics()
	if st.Queries != workers*perWorker {
		t.Errorf("Queries = %d, want %d", st.Queries, workers*perWorker)
	}
	if mt.Latency.Count != st.Queries {
		t.Errorf("latency observations = %d, want one per accepted attempt (%d)", mt.Latency.Count, st.Queries)
	}
	if st.Errors == 0 {
		t.Error("expected some injected errors at rate 0.5")
	}
	if inj := src.Faults(); inj.Stats().Transients != st.Errors {
		t.Errorf("injector transients (%d) and source errors (%d) disagree",
			inj.Stats().Transients, st.Errors)
	}
}

// TestLatencyHistogram checks bucketing, Sum and Percentile behavior.
func TestLatencyHistogram(t *testing.T) {
	var l LatencyStats
	for _, d := range []time.Duration{
		500 * time.Nanosecond, // bucket 0 (<= 1µs)
		3 * time.Microsecond,  // bucket 2 (<= 4µs)
		100 * time.Microsecond,
		20 * time.Millisecond,
	} {
		l.observe(d)
	}
	if l.Count != 4 {
		t.Fatalf("Count = %d", l.Count)
	}
	wantSum := 500*time.Nanosecond + 3*time.Microsecond + 100*time.Microsecond + 20*time.Millisecond
	if l.Sum != wantSum {
		t.Fatalf("Sum = %v, want %v", l.Sum, wantSum)
	}
	if p := l.Percentile(0.25); p != time.Microsecond {
		t.Errorf("p25 = %v, want 1µs bound", p)
	}
	if p := l.Percentile(0.5); p != 4*time.Microsecond {
		t.Errorf("p50 = %v, want 4µs bound", p)
	}
	if p := l.Percentile(1); p < 20*time.Millisecond {
		t.Errorf("p100 = %v, want >= slowest observation", p)
	}
	if (LatencyStats{}).Percentile(0.5) != 0 {
		t.Error("empty histogram percentile must be 0")
	}
}

// TestLatencyPercentileNearestRank pins the nearest rank ⌈p·N⌉ on the
// histogram /metrics reads: one slow attempt in fifty is the p99, and an
// integral p·N stays exact despite float64 rounding.
func TestLatencyPercentileNearestRank(t *testing.T) {
	type group struct {
		n int
		d time.Duration
	}
	slow := BucketBound(16) // 50ms lands in (32.768ms, 65.536ms]
	cases := []struct {
		name string
		obs  []group
		p    float64
		want time.Duration
	}{
		{"one slow in ten, p95", []group{{9, 100 * time.Microsecond}, {1, 50 * time.Millisecond}}, 0.95, slow},
		{"one slow in ten, p99", []group{{9, 100 * time.Microsecond}, {1, 50 * time.Millisecond}}, 0.99, slow},
		{"one slow in fifty, p99", []group{{49, 100 * time.Microsecond}, {1, 50 * time.Millisecond}}, 0.99, slow},
		{"one slow in fifty, p98", []group{{49, 100 * time.Microsecond}, {1, 50 * time.Millisecond}}, 0.98, BucketBound(7)},
		{"1µs, 1ms, 1s, p50", []group{{1, time.Microsecond}, {1, time.Millisecond}, {1, time.Second}}, 0.50, BucketBound(10)},
		{"0.07 × 100 is rank 7", []group{{7, time.Microsecond}, {93, time.Millisecond}}, 0.07, time.Microsecond},
	}
	for _, c := range cases {
		var l LatencyStats
		for _, g := range c.obs {
			for i := 0; i < g.n; i++ {
				l.observe(g.d)
			}
		}
		if got := l.Percentile(c.p); got != c.want {
			t.Errorf("%s: Percentile(%v) = %v, want %v", c.name, c.p, got, c.want)
		}
	}
}

// TestBucketBound pins the exponential bucket layout.
func TestBucketBound(t *testing.T) {
	if BucketBound(0) != time.Microsecond {
		t.Errorf("bucket 0 bound = %v", BucketBound(0))
	}
	if BucketBound(10) != 1024*time.Microsecond {
		t.Errorf("bucket 10 bound = %v", BucketBound(10))
	}
	if BucketBound(latencyBuckets-1) != time.Duration(1<<63-1) {
		t.Error("last bucket must absorb everything")
	}
}

// TestResetStatsClearsEverything verifies counters, histogram and injector
// stats all reset.
func TestResetStatsClearsEverything(t *testing.T) {
	src := New("cars", carRel(), Capabilities{})
	src.SetFaults(faults.New(faults.Profile{Seed: 1, TransientRate: 1}))
	_, _ = src.Query(bmwQuery())
	src.ResetStats()
	if src.Stats() != (Stats{}) {
		t.Errorf("stats after reset = %+v", src.Stats())
	}
	if src.Metrics().Latency.Count != 0 {
		t.Error("latency histogram must reset")
	}
	if src.Faults().Stats() != (faults.Stats{}) {
		t.Error("injector stats must reset")
	}
}

// TestQueryCtxMatchesQuery verifies the compat wrapper is the ctx-less
// path: same rows, same accounting.
func TestQueryCtxMatchesQuery(t *testing.T) {
	a := New("cars", carRel(), Capabilities{})
	b := New("cars", carRel(), Capabilities{})
	ra, errA := a.Query(bmwQuery())
	rb, errB := b.QueryCtx(context.Background(), bmwQuery())
	if (errA == nil) != (errB == nil) || len(ra) != len(rb) {
		t.Fatalf("Query vs QueryCtx diverge: %v/%d vs %v/%d", errA, len(ra), errB, len(rb))
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// TestBudgetRejectionFast confirms budget refusals stay immediate even with
// an injector attached (no fault latency on the rejection path).
func TestBudgetRejectionFast(t *testing.T) {
	src := New("cars", carRel(), Capabilities{MaxQueries: 1, Latency: 50 * time.Millisecond})
	src.SetFaults(faults.New(faults.Profile{Seed: 1, LatencyJitter: 50 * time.Millisecond}))
	if _, err := src.Query(bmwQuery()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := src.Query(bmwQuery())
	if !errors.Is(err, ErrQueryBudget) {
		t.Fatalf("want ErrQueryBudget, got %v", err)
	}
	if d := time.Since(start); d > 3*time.Millisecond {
		t.Errorf("budget rejection should be immediate, took %v", d)
	}
	if st := src.Stats(); st.Rejected != 1 || st.Queries != 1 {
		t.Errorf("stats = %+v, want 1 accepted + 1 rejected", st)
	}
}
