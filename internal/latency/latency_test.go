package latency

import (
	"sync"
	"testing"
	"time"
)

func TestEmptyHist(t *testing.T) {
	var h Hist
	if h.Count() != 0 || h.Sum() != 0 || h.Percentile(0.99) != 0 || h.Mean() != 0 {
		t.Errorf("zero histogram not empty: count=%d sum=%v p99=%v", h.Count(), h.Sum(), h.Percentile(0.99))
	}
	s := h.Snapshot()
	if s.Count != 0 || s.P99Micros != 0 {
		t.Errorf("zero snapshot = %+v", s)
	}
}

func TestBucketBoundsMatchSourceHistogram(t *testing.T) {
	// The bounds mirror internal/source.LatencyStats so server-side and
	// mediator-side percentiles compare bucket for bucket.
	if got := BucketBound(0); got != time.Microsecond {
		t.Errorf("BucketBound(0) = %v", got)
	}
	if got := BucketBound(10); got != time.Microsecond<<10 {
		t.Errorf("BucketBound(10) = %v", got)
	}
	if got := BucketBound(buckets - 1); got != time.Duration(1<<63-1) {
		t.Errorf("overflow bound = %v", got)
	}
}

func TestPercentileOverEstimatesByAtMostOneBucket(t *testing.T) {
	var h Hist
	for i := 0; i < 100; i++ {
		h.Record(2 * time.Millisecond)
	}
	p := h.Percentile(0.99)
	if p < 2*time.Millisecond {
		t.Errorf("p99 %v under-estimates the observation", p)
	}
	if p > 4*time.Millisecond { // 2ms lands in the (1ms, 2.048ms] bucket
		t.Errorf("p99 %v over-estimates by more than one bucket", p)
	}
}

func TestPercentileOrdering(t *testing.T) {
	var h Hist
	// 90 fast, 8 medium, 2 slow: p50 fast, p95 medium, p99 slow.
	for i := 0; i < 90; i++ {
		h.Record(100 * time.Microsecond)
	}
	for i := 0; i < 8; i++ {
		h.Record(10 * time.Millisecond)
	}
	h.Record(time.Second)
	h.Record(time.Second)
	p50, p95, p99 := h.Percentile(0.50), h.Percentile(0.95), h.Percentile(0.99)
	if !(p50 < p95 && p95 < p99) {
		t.Errorf("percentiles not ordered: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	if p50 > time.Millisecond {
		t.Errorf("p50 %v should be in the fast band", p50)
	}
	if p99 < 500*time.Millisecond {
		t.Errorf("p99 %v should see the slow outlier", p99)
	}
}

// TestPercentileNearestRank pins the nearest rank ⌈p·N⌉: the observation
// at rank p·N rounded up is reported, so a slow tail is not skipped, and an
// integral p·N stays exact despite float64 rounding.
func TestPercentileNearestRank(t *testing.T) {
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
		{"one slow in ten, p90", []group{{9, 100 * time.Microsecond}, {1, 50 * time.Millisecond}}, 0.90, BucketBound(7)},
		{"1µs, 1ms, 1s, p50", []group{{1, time.Microsecond}, {1, time.Millisecond}, {1, time.Second}}, 0.50, BucketBound(10)},
		{"0.07 × 100 is rank 7", []group{{7, time.Microsecond}, {93, time.Millisecond}}, 0.07, time.Microsecond},
		{"0.08 × 100 is rank 8", []group{{7, time.Microsecond}, {93, time.Millisecond}}, 0.08, BucketBound(10)},
	}
	for _, c := range cases {
		var h Hist
		for _, g := range c.obs {
			for i := 0; i < g.n; i++ {
				h.Record(g.d)
			}
		}
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("%s: Percentile(%v) = %v, want %v", c.name, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		p    float64
		n    int64
		want int64
	}{
		{0, 5, 1}, {1, 5, 5}, {0.5, 3, 2}, {0.95, 10, 10}, {0.07, 100, 7},
		{0.29, 100, 29}, {0.57, 100, 57}, {0.99, 1000, 990}, {0.999, 1000, 999},
	} {
		if got := Rank(c.p, c.n); got != c.want {
			t.Errorf("Rank(%v, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func TestNegativeDurationClampsToZero(t *testing.T) {
	var h Hist
	h.Record(-time.Second)
	if h.Sum() != 0 || h.Count() != 1 {
		t.Errorf("negative observation: count=%d sum=%v", h.Count(), h.Sum())
	}
}

// TestMergeMatchesUnion proves merge correctness: recording a set of
// observations split across shards and merging must produce exactly the
// histogram of recording them all into one.
func TestMergeMatchesUnion(t *testing.T) {
	durations := make([]time.Duration, 0, 300)
	for i := 0; i < 300; i++ {
		durations = append(durations, time.Duration(1+i*i)*time.Microsecond)
	}
	var whole Hist
	for _, d := range durations {
		whole.Record(d)
	}
	shards := make([]Hist, 7)
	for i, d := range durations {
		shards[i%len(shards)].Record(d)
	}
	var merged Hist
	for i := range shards {
		merged.Merge(&shards[i])
	}
	merged.Merge(nil) // no-op

	if merged.Count() != whole.Count() || merged.Sum() != whole.Sum() {
		t.Fatalf("merged count/sum = %d/%v, want %d/%v", merged.Count(), merged.Sum(), whole.Count(), whole.Sum())
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		if got, want := merged.Percentile(p), whole.Percentile(p); got != want {
			t.Errorf("P%.2f: merged %v, whole %v", p, got, want)
		}
	}
}

// TestConcurrentRecordingAndMerge drives shards from concurrent workers
// (with reads racing the writes) and checks the merged histogram against a
// sequential reference. Run under -race this also proves lock-freedom is
// data-race-free.
func TestConcurrentRecordingAndMerge(t *testing.T) {
	const workers, perWorker = 8, 2000
	shards := make([]Hist, workers)
	stop := make(chan struct{})
	// A racing reader: merges and snapshots taken mid-recording must never
	// tear a counter or panic.
	var readerWg sync.WaitGroup
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var scratch Hist
			for i := range shards {
				scratch.Merge(&shards[i])
			}
			_ = scratch.Snapshot()
		}
	}()
	var writerWg sync.WaitGroup
	for w := 0; w < workers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for i := 0; i < perWorker; i++ {
				shards[w].Record(time.Duration((w*perWorker+i)%5000) * time.Microsecond)
			}
		}(w)
	}
	writerWg.Wait()
	close(stop)
	readerWg.Wait()

	var merged Hist
	for i := range shards {
		merged.Merge(&shards[i])
	}
	var ref Hist
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			ref.Record(time.Duration((w*perWorker+i)%5000) * time.Microsecond)
		}
	}
	if merged.Count() != ref.Count() || merged.Sum() != ref.Sum() {
		t.Fatalf("merged count/sum = %d/%v, want %d/%v", merged.Count(), merged.Sum(), ref.Count(), ref.Sum())
	}
	for _, p := range []float64{0.5, 0.95, 0.99} {
		if got, want := merged.Percentile(p), ref.Percentile(p); got != want {
			t.Errorf("P%v: merged %v, reference %v", p, got, want)
		}
	}
}
