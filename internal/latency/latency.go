// Package latency provides a lock-free exponential-bucket latency
// histogram shared by the server side (per-endpoint service-time tracking
// in internal/httpapi) and the client side (per-worker recording shards in
// internal/loadgen).
//
// The design goals, in order:
//
//   - Recording must be wait-free and allocation-free: one atomic add on
//     the bucket counter, one on the count, one on the sum. A load worker
//     or request handler on the hot path never takes a lock.
//   - Histograms must merge: the load generator records into one shard per
//     worker (no cross-worker cache-line contention) and folds the shards
//     into a single distribution at report time. Merging is a plain
//     bucket-wise sum, so merged percentiles equal the percentiles of the
//     union of observations up to bucket resolution.
//   - Bucket bounds mirror internal/source.LatencyStats (bucket i holds
//     observations <= 1µs << i, last bucket overflows) so server-side and
//     mediator-side percentiles are comparable bucket for bucket.
//
// Reads (Percentile, Snapshot) are racy-by-design point-in-time views:
// they sum the buckets as they are, which is the standard monitoring
// trade-off — a snapshot taken during recording may be mid-update by one
// observation, never torn within a counter.
package latency

import (
	"math"
	"sync/atomic"
	"time"
)

// buckets is the histogram resolution: bucket i holds observations with
// duration <= 1µs << i; the last bucket absorbs everything slower
// (about 8.4s and up).
const buckets = 24

// BucketBound returns the inclusive upper bound of histogram bucket i.
func BucketBound(i int) time.Duration {
	if i >= buckets-1 {
		return time.Duration(1<<63 - 1)
	}
	return time.Microsecond << i
}

// Hist is a lock-free exponential-bucket latency histogram. The zero value
// is ready to use. Record may be called from any number of goroutines
// concurrently with reads and merges.
type Hist struct {
	count atomic.Int64
	sum   atomic.Int64 // nanoseconds
	b     [buckets]atomic.Int64
}

// Record files one observation.
func (h *Hist) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.b[bucketOf(d)].Add(1)
}

// bucketOf returns the index of the bucket holding duration d.
func bucketOf(d time.Duration) int {
	for i := 0; i < buckets-1; i++ {
		if d <= BucketBound(i) {
			return i
		}
	}
	return buckets - 1
}

// Merge adds other's observations into h. Other may be recorded into
// concurrently; the merge folds in whatever each counter held when read.
func (h *Hist) Merge(other *Hist) {
	if other == nil {
		return
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	for i := range other.b {
		if n := other.b[i].Load(); n != 0 {
			h.b[i].Add(n)
		}
	}
}

// Count returns the number of observations.
func (h *Hist) Count() int64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Hist) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Percentile returns the upper bound of the bucket holding the p-th
// quantile (p in [0, 1]), 0 when nothing was observed. Bucket bounds make
// it an over-estimate by at most one bucket width; the overflow bucket
// reports the sum, the only honest bound available.
func (h *Hist) Percentile(p float64) time.Duration {
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := Rank(p, count)
	var cum int64
	for i := 0; i < buckets; i++ {
		cum += h.b[i].Load()
		if cum >= target {
			if i == buckets-1 {
				return time.Duration(h.sum.Load())
			}
			return BucketBound(i)
		}
	}
	return time.Duration(h.sum.Load())
}

// Rank is the nearest rank of the p-th quantile among n observations:
// ⌈p·n⌉, at least 1. A p·n within float64 rounding of an integer counts as
// that integer, so 0.07 × 100, which is 7.000000000000001 in float64, is
// rank 7.
func Rank(p float64, n int64) int64 {
	x := p * float64(n)
	return max(int64(math.Ceil(x-x*1e-12)), 1)
}

// Summary is a serializable point-in-time digest of a histogram: the
// shape every report and metrics payload exposes.
type Summary struct {
	Count     int64         `json:"count"`
	Sum       time.Duration `json:"-"`
	SumMicros int64         `json:"sum_micros"`
	P50Micros int64         `json:"p50_micros"`
	P95Micros int64         `json:"p95_micros"`
	P99Micros int64         `json:"p99_micros"`
	P50       time.Duration `json:"-"`
	P95       time.Duration `json:"-"`
	P99       time.Duration `json:"-"`
}

// Snapshot digests the histogram into a Summary.
func (h *Hist) Snapshot() Summary {
	s := Summary{
		Count: h.count.Load(),
		Sum:   time.Duration(h.sum.Load()),
		P50:   h.Percentile(0.50),
		P95:   h.Percentile(0.95),
		P99:   h.Percentile(0.99),
	}
	s.SumMicros = int64(s.Sum / time.Microsecond)
	s.P50Micros = int64(s.P50 / time.Microsecond)
	s.P95Micros = int64(s.P95 / time.Microsecond)
	s.P99Micros = int64(s.P99 / time.Microsecond)
	return s
}

// Mean returns the average observation, 0 when empty.
func (h *Hist) Mean() time.Duration {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / c)
}
