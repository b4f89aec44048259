// Package selectivity estimates rewritten-query selectivity from the
// mediator's offline sample, per Section 5.4 of the paper:
//
//	EstSel(Q) = SmplSel(Q) × SmplRatio(R) × PerInc(R)
//
// where SmplSel is the query's cardinality on the sample, SmplRatio scales
// the sample to the full database, and PerInc is the fraction of incomplete
// tuples — because a rewritten query's useful yield is the incomplete
// tuples it retrieves (complete ones were either certain answers already or
// certain non-answers).
//
// Sample counts are pure functions of (sample, query), and planning —
// rewrite scoring, join-pair estimation, greedy join ordering — re-scores
// the same query fingerprints over and over, so SampleSelectivity memoizes
// per query key in a bounded cache. ReplaceSample is the invalidation hook:
// swapping the sample (a re-probe of a drifted source) purges every count.
package selectivity

import (
	"fmt"
	"sync"

	"qpiad/internal/qcache"
	"qpiad/internal/relation"
)

// memoCapacity bounds the per-estimator count memo. Plans touch at most a
// few hundred distinct rewrites per query; 4096 entries absorb many
// concurrent plans while keeping a cold estimator small.
const memoCapacity = 4096

// Estimator scores queries against a sample. Safe for concurrent use:
// lookups share a read lock, and ReplaceSample swaps the sample atomically
// with respect to in-flight estimates.
type Estimator struct {
	mu     sync.RWMutex
	sample *relation.Relation
	ratio  float64
	perInc float64
	// memo caches SampleSelectivity counts by query fingerprint. Counts are
	// pure over an immutable sample, so entries never go stale: ReplaceSample
	// swaps in a fresh memo together with the sample, and a lookup racing the
	// swap can only populate the superseded memo it captured with the
	// superseded sample — never mix the two.
	memo *qcache.Cache
}

// New builds an estimator. ratio is SmplRatio(R) ≥ 0 and perInc is
// PerInc(R) ∈ [0, 1].
func New(sample *relation.Relation, ratio, perInc float64) (*Estimator, error) {
	if err := validate(sample, ratio, perInc); err != nil {
		return nil, err
	}
	return &Estimator{
		sample: sample,
		ratio:  ratio,
		perInc: perInc,
		memo:   qcache.New(qcache.Config{Capacity: memoCapacity}),
	}, nil
}

// validate checks the estimator invariants shared by New and ReplaceSample.
func validate(sample *relation.Relation, ratio, perInc float64) error {
	if sample == nil {
		return fmt.Errorf("selectivity: nil sample")
	}
	if ratio < 0 {
		return fmt.Errorf("selectivity: negative ratio %v", ratio)
	}
	if perInc < 0 || perInc > 1 {
		return fmt.Errorf("selectivity: PerInc %v outside [0,1]", perInc)
	}
	return nil
}

// ReplaceSample swaps in a fresh sample (with its new ratio and PerInc) and
// invalidates every memoized count — the hook a knowledge re-probe calls so
// estimates never reflect a sample that is no longer backing them.
func (e *Estimator) ReplaceSample(sample *relation.Relation, ratio, perInc float64) error {
	if err := validate(sample, ratio, perInc); err != nil {
		return err
	}
	e.mu.Lock()
	e.sample = sample
	e.ratio = ratio
	e.perInc = perInc
	e.memo = qcache.New(qcache.Config{Capacity: memoCapacity})
	e.mu.Unlock()
	return nil
}

// Sample returns the backing sample relation.
func (e *Estimator) Sample() *relation.Relation {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.sample
}

// Ratio returns SmplRatio(R).
func (e *Estimator) Ratio() float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ratio
}

// PerInc returns PerInc(R).
func (e *Estimator) PerInc() float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.perInc
}

// MemoStats snapshots the count-memo counters (hits, misses, evictions).
func (e *Estimator) MemoStats() qcache.Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.memo.Stats()
}

// SampleSelectivity returns SmplSel(Q): the cardinality of Q on the sample,
// memoized per query fingerprint.
func (e *Estimator) SampleSelectivity(q relation.Query) int {
	n, _, _ := e.sampleCount(q, q.Key())
	return n
}

// EstSel returns the estimated number of relevant incomplete tuples the
// query would retrieve from the full database.
func (e *Estimator) EstSel(q relation.Query) float64 {
	return e.EstSelKeyed(q, q.Key())
}

// EstSelKeyed is EstSel for a caller that already holds key = q.Key(), so
// the memo lookup does not build the key again.
func (e *Estimator) EstSelKeyed(q relation.Query, key string) float64 {
	n, ratio, perInc := e.sampleCount(q, key)
	return float64(n) * ratio * perInc
}

// EstSelComplete returns the estimated full-database cardinality of Q
// without the incompleteness discount (used where the expected total result
// size matters, e.g. join-pair cost estimates for complete queries).
func (e *Estimator) EstSelComplete(q relation.Query) float64 {
	n, ratio, _ := e.sampleCount(q, q.Key())
	return float64(n) * ratio
}

// sampleCount returns q's memoized count, filed under key = q.Key(),
// together with the ratio and PerInc of the sample it was counted on,
// captured under one lock so a concurrent ReplaceSample can never mix
// statistics from two samples in one estimate.
func (e *Estimator) sampleCount(q relation.Query, key string) (n int, ratio, perInc float64) {
	e.mu.RLock()
	smpl, memo := e.sample, e.memo
	ratio, perInc = e.ratio, e.perInc
	e.mu.RUnlock()
	if v, ok := memo.Get(key); ok {
		return v.(int), ratio, perInc
	}
	n = smpl.Count(q)
	memo.Put(key, n)
	return n, ratio, perInc
}
