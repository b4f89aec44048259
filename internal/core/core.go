// Package core implements QPIAD's primary contribution: retrieving relevant
// possible answers from incomplete autonomous databases by query rewriting
// and ranking (Section 4 of the paper).
//
// Given a user query, the mediator first retrieves the certain answers
// (the base result set), then generates rewritten queries from the distinct
// determining-set value combinations in the base set — one rewrite family
// per constrained attribute, driven by that attribute's highest-confidence
// mined AFD. Rewrites are scored with
//
//	precision  = P(constrained attribute satisfies the original predicate |
//	             determining-set values)        — from the NBC predictor
//	selectivity = SmplSel × SmplRatio × PerInc  — from the sample
//	recall     = normalized expected throughput (precision × selectivity)
//	F(α)       = (1+α)·P·R / (α·P + R)
//
// The top-K rewrites by F-measure are issued in order of descending
// precision, so each retrieved tuple inherits its query's precision as its
// rank — no per-tuple re-ranking is needed (Section 4.2, step 2c).
package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qpiad/internal/afd"
	"qpiad/internal/breaker"
	"qpiad/internal/nbc"
	"qpiad/internal/qcache"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// Ordering selects how candidate rewrites are ranked before the top-K cut.
type Ordering uint8

const (
	// OrderFMeasure is QPIAD's F-measure ordering (the default).
	OrderFMeasure Ordering = iota
	// OrderSelectivity ranks purely by estimated selectivity — an ablation
	// showing why precision must participate.
	OrderSelectivity
	// OrderArbitrary ranks by query key — a deterministic stand-in for "no
	// intelligent ordering", the other ablation endpoint.
	OrderArbitrary
)

// String names the ordering.
func (o Ordering) String() string {
	switch o {
	case OrderFMeasure:
		return "f-measure"
	case OrderSelectivity:
		return "selectivity"
	case OrderArbitrary:
		return "arbitrary"
	default:
		return fmt.Sprintf("ordering(%d)", uint8(o))
	}
}

// Config tunes the mediator's rewriting and ranking.
type Config struct {
	// Alpha is the F-measure weight α: 0 ranks purely by precision, 1
	// weighs precision and recall equally, >1 favors recall (Section 4.1).
	Alpha float64
	// K is the number of rewritten queries issued per user query
	// (per constrained attribute family combined). K <= 0 means unlimited.
	K int
	// Ordering overrides the rewrite-ordering policy (ablation hook;
	// the zero value is QPIAD's F-measure ordering).
	Ordering Ordering
	// Parallel bounds how many rewritten queries of one plan (a select,
	// stream, aggregate, correlated query, one two-way join side's
	// components, or one chain-join source's rewrite set) are issued to a
	// source concurrently. Web-source latency dominates mediator cost, so
	// issuing the chosen top-K in parallel cuts wall-clock time without
	// changing results: answers are still assembled in precision order. 0
	// or 1 is sequential.
	Parallel int
	// Retry bounds how the mediator's fetch path handles source failures:
	// attempts, backoff, deadlines. The zero value resolves to 3 attempts
	// with a small exponential backoff and no deadlines — inert against
	// reliable sources, since capability and budget refusals never retry.
	Retry RetryPolicy
	// TopN, when > 0, arms the streaming executor's confidence-bound early
	// termination (SelectStreamWith): once TopN possible answers have been
	// emitted, no unissued rewrite — every one of which has estimated
	// precision at most that of the answers already out — can improve the
	// top-N, so the remaining rewrites are skipped and in-flight ones are
	// cancelled. 0 disables the bound; the batch Select path ignores TopN
	// entirely. Certain answers are always all returned and do not count
	// against TopN.
	TopN int
	// NoCache bypasses the mediator answer cache for calls made under this
	// config: the query runs the full pipeline and its result is not stored.
	// Per-request bypass (the HTTP "no_cache" field, the CLI -no-cache flag)
	// sets this on the per-call config.
	NoCache bool
	// CacheSize bounds the mediator answer cache (entries). 0 means the
	// default (1024); negative disables the cache entirely — unlike NoCache
	// this also turns off singleflight collapsing of concurrent duplicates.
	CacheSize int
	// Breaker, when non-nil, attaches a per-source circuit breaker with
	// this configuration to every registered source: open circuits reject
	// queries at admission (no budget consumed), remaining plan rewrites
	// are skipped with their selectivity accounted as saved tuples, and
	// every attempt outcome feeds the source's health score. nil disables
	// admission control entirely.
	Breaker *breaker.Config
	// CacheTTL bounds how long a cached answer counts as fresh (qcache
	// FreshTTL). 0 means cached answers never expire — the pre-TTL
	// behavior. Entries past CacheTTL are recomputed on access but remain
	// readable by the stale fallback below.
	CacheTTL time.Duration
	// StaleTTL arms the stale-cache fallback: when a source's circuit
	// breaker rejects the base query, the mediator serves the last cached
	// answer up to StaleTTL old, marked ResultSet.Stale, instead of
	// failing. 0 disables the fallback (open circuits fail the query).
	StaleTTL time.Duration
	// Clock injects the time base for the answer cache's TTLs and newly
	// attached breakers (deterministic tests). nil means the wall clock.
	Clock func() time.Time
}

// DefaultConfig matches the paper's experimental defaults (α = 0, K = 10).
func DefaultConfig() Config { return Config{Alpha: 0, K: 10} }

// Knowledge bundles everything QPIAD mines offline about one source
// (Section 5): AFDs, per-attribute value-distribution predictors, and the
// probed sample with the statistics that scale its counts into selectivity
// estimates.
type Knowledge struct {
	// Source is the name of the source the sample was probed from.
	Source string
	// Sample is the probed sample relation.
	Sample *relation.Relation
	// Ratio is SmplRatio(R): the source's size over the sample's.
	Ratio float64
	// PerInc is PerInc(R): the fraction of the source's tuples that are
	// incomplete.
	PerInc float64
	// AFDs is the mined dependency set.
	AFDs *afd.Result
	// Predictors maps each attribute to its trained value-distribution
	// predictor. Attributes whose training failed (e.g. all-null in the
	// sample) are absent.
	Predictors map[string]*nbc.Predictor

	// predCache memoizes PredictEvidence distributions keyed by
	// (target, canonical evidence combination). Distributions are immutable
	// once built, so cached values are shared safely. nil (e.g. on
	// hand-assembled Knowledge literals in tests) disables memoization.
	predCache *qcache.Cache
}

// predictEvidence returns p.PredictEvidence(evidence), memoized under key
// when the knowledge carries a prediction cache. The same determining-set
// value combinations recur across every query over a source, so warm
// lookups skip NBC inference entirely.
func (k *Knowledge) predictEvidence(p *nbc.Predictor, key string, evidence map[string]relation.Value) nbc.Distribution {
	if k.predCache == nil {
		return p.PredictEvidence(evidence)
	}
	if v, ok := k.predCache.Get(key); ok {
		return v.(nbc.Distribution)
	}
	d := p.PredictEvidence(evidence)
	k.predCache.Put(key, d)
	return d
}

// EstSel estimates a rewritten query's selectivity per Section 5.4 of the
// paper:
//
//	EstSel(Q) = SmplSel(Q) × SmplRatio(R) × PerInc(R)
//
// where SmplSel is the query's cardinality on the sample, SmplRatio scales
// the sample to the full database, and PerInc is the fraction of
// incomplete tuples: a rewritten query's useful yield is the incomplete
// tuples it retrieves, because its complete ones were either certain
// answers already or certain non-answers.
func (k *Knowledge) EstSel(q relation.Query) float64 {
	return float64(k.Sample.Count(q)) * k.Ratio * k.PerInc
}

// PredictionMemoStats snapshots the prediction memo's counters (zero when
// the knowledge carries no memo).
func (k *Knowledge) PredictionMemoStats() qcache.Stats {
	if k.predCache == nil {
		return qcache.Stats{}
	}
	return k.predCache.Stats()
}

// KnowledgeConfig tunes offline mining.
type KnowledgeConfig struct {
	// AFD configures dependency mining.
	AFD afd.Config
	// Predictor configures classifier construction (mode, thresholds,
	// m-estimate).
	Predictor nbc.PredictorConfig
	// Workers bounds the goroutines training per-attribute predictors (and,
	// unless AFD.Workers is set explicitly, the TANE level fan-out). 0 means
	// GOMAXPROCS; 1 forces sequential mining. Any value produces identical
	// Knowledge: attributes are independent and results merge in schema
	// order. Excluded from JSON so persisted knowledge files don't depend on
	// the mining machine's core count.
	Workers int `json:"-"`
}

// MineKnowledge mines AFDs and trains one predictor per attribute from a
// probed sample. ratio is SmplRatio(R) ≥ 0 and perInc is PerInc(R) in
// [0, 1], both produced by the sampling step.
func MineKnowledge(sourceName string, smpl *relation.Relation, ratio, perInc float64, cfg KnowledgeConfig) (*Knowledge, error) {
	if smpl == nil || smpl.Len() == 0 {
		return nil, fmt.Errorf("core: empty sample for source %s", sourceName)
	}
	if ratio < 0 {
		return nil, fmt.Errorf("core: negative sample ratio %v for source %s", ratio, sourceName)
	}
	if perInc < 0 || perInc > 1 {
		return nil, fmt.Errorf("core: PerInc %v outside [0,1] for source %s", perInc, sourceName)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.AFD.Workers == 0 {
		cfg.AFD.Workers = workers
	}
	k := &Knowledge{
		Source:     sourceName,
		Sample:     smpl,
		Ratio:      ratio,
		PerInc:     perInc,
		AFDs:       afd.Mine(smpl, cfg.AFD),
		Predictors: make(map[string]*nbc.Predictor, smpl.Schema.Len()),
		predCache:  qcache.New(qcache.Config{Capacity: 4096}),
	}
	// Train one predictor per attribute on a bounded worker pool. Each
	// training run reads only the (immutable) sample and mined AFDs, so
	// attribute order carries no data dependency; results land in an
	// index-addressed slice and merge in schema order, making the Knowledge
	// identical for any worker count.
	attrs := smpl.Schema.Names()
	preds := make([]*nbc.Predictor, len(attrs))
	if workers > len(attrs) {
		workers = len(attrs)
	}
	if workers <= 1 {
		for i, attr := range attrs {
			// An attribute that cannot be learned (e.g. always null in the
			// sample) simply has no predictor; queries constraining it fall
			// back to certain answers only.
			//lint:allow errdrop unlearnable attribute degrades to certain-only answers by design
			preds[i], _ = nbc.TrainPredictor(smpl, attr, k.AFDs, cfg.Predictor)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					//lint:allow errdrop unlearnable attribute degrades to certain-only answers by design
					preds[i], _ = nbc.TrainPredictor(smpl, attrs[i], k.AFDs, cfg.Predictor)
				}
			}()
		}
		for i := range attrs {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for i, attr := range attrs {
		if preds[i] != nil {
			k.Predictors[attr] = preds[i]
		}
	}
	return k, nil
}

// Answer is one tuple returned to the user with its relevance assessment.
type Answer struct {
	// Tuple is the answer tuple, in the source's local schema.
	Tuple relation.Tuple
	// Source names the source the tuple came from (set on global-schema
	// queries, empty on single-source paths where the ResultSet carries it).
	Source string
	// Certain reports whether the tuple exactly satisfies the user query.
	Certain bool
	// Confidence is the assessed degree of relevance: 1 for certain
	// answers, the retrieving query's precision for possible answers.
	Confidence float64
	// FromQuery is the (possibly rewritten) query that retrieved the tuple.
	FromQuery relation.Query
	// Explanation justifies the relevance assessment, citing the AFD used
	// (the QPIAD UI's "snippets of its reasoning").
	Explanation string
}

// ResultSet is the full outcome of a selection query.
//
// A ResultSet served from the answer cache shares its answer sections and
// Issued with the cached entry (see QuerySelectWithCtx): reslice, append or
// Project it, and reorder it only through SortBy; never write to an
// element in place.
type ResultSet struct {
	// Query is the original user query.
	Query relation.Query
	// Source is the queried source's name.
	Source string
	// Certain holds the base result set RS(Q).
	Certain []Answer
	// Possible holds the ranked relevant possible answers, in retrieval
	// order (descending retrieving-query precision).
	Possible []Answer
	// Unranked holds tuples with more than one null over the query
	// constrained attributes, output after the ranked answers (see the
	// paper's Assumptions paragraph).
	Unranked []Answer
	// Issued are the chosen rewritten queries in issue order, each with its
	// outcome: successful rewrites carry Transferred/Kept, failed or
	// budget-skipped rewrites carry a non-nil Err (and Attempts made), so
	// query-cost accounting sees every rewrite the mediator committed to.
	Issued []RewrittenQuery
	// Generated is the number of candidate rewrites before top-K selection.
	Generated int
	// Degraded reports that at least one chosen rewrite failed or was
	// skipped: the answer set is complete over the queries that succeeded
	// but may be missing possible answers (see Issued for which and why).
	Degraded bool
	// Stale reports the result was served from the answer cache past its
	// freshness bound because the source's circuit breaker was open (the
	// stale-cache fallback). The answer sections are byte-identical to the
	// cached entry; StaleAge is how old it was when served.
	Stale    bool
	StaleAge time.Duration
	// EstSavedTuples estimates the tuples not transferred because rewrites
	// were rejected or skipped while the source's circuit was open (the sum
	// of their selectivity estimates) — the admission-control analogue of
	// the streaming executor's early-stop savings.
	EstSavedTuples float64
}

// Mediator coordinates sources and their mined knowledge.
type Mediator struct {
	cfg Config
	// mu guards the sources and knowledge maps: Register (including
	// knowledge reload mid-serve — the chaos harness swaps knowledge files
	// under live traffic) takes the write lock, every query path reads
	// through the lookup accessors under the read lock.
	mu        sync.RWMutex
	sources   map[string]*source.Source
	knowledge map[string]*Knowledge
	// cache memoizes full QuerySelectWithCtx results keyed by (source,
	// query key, config fingerprint) with singleflight collapsing of
	// concurrent identical queries. nil when Config.CacheSize < 0.
	cache *qcache.Cache
	// staleServed counts answers served by the stale-cache fallback.
	staleServed atomic.Int64
}

// New creates a mediator. cfg is fixed for its lifetime; a query that
// needs other settings passes its own Config.
func New(cfg Config) *Mediator {
	m := &Mediator{
		cfg:       cfg,
		sources:   make(map[string]*source.Source),
		knowledge: make(map[string]*Knowledge),
	}
	if cfg.CacheSize >= 0 {
		m.cache = qcache.New(qcache.Config{
			Capacity: cfg.CacheSize,
			FreshTTL: cfg.CacheTTL,
			Clock:    cfg.Clock,
		})
	}
	return m
}

// Config returns the mediator's configuration.
func (m *Mediator) Config() Config { return m.cfg }

// Register adds a source with its mined knowledge. Knowledge may be nil for
// sources that are only ever queried through correlated knowledge
// (Section 4.3). Registering invalidates any cached answers for the source:
// both re-registration with fresh data and knowledge reload (LoadKnowledge
// funnels through here) must not serve answers derived from the old state.
func (m *Mediator) Register(src *source.Source, k *Knowledge) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sources[src.Name()] = src
	if k != nil {
		m.knowledge[src.Name()] = k
	}
	if m.cache != nil {
		m.cache.DeletePrefix(src.Name() + "\x1e")
	}
	if m.cfg.Breaker != nil && src.Breaker() == nil {
		bc := *m.cfg.Breaker
		if bc.Clock == nil {
			bc.Clock = m.cfg.Clock
		}
		src.SetBreaker(breaker.New(src.Name(), bc))
	}
}

// lookup returns the named source and its knowledge under the registry
// read lock. The knowledge may be nil for sources registered without any.
// In-flight queries that resolved their source before a concurrent
// Register keep using the generation they saw — the swap is atomic at
// lookup granularity, never mid-pipeline.
func (m *Mediator) lookup(name string) (*source.Source, *Knowledge, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	src, ok := m.sources[name]
	return src, m.knowledge[name], ok
}

// StaleServed returns the number of answers served by the stale-cache
// fallback since the mediator was built.
func (m *Mediator) StaleServed() int64 { return m.staleServed.Load() }

// BreakerSnapshot returns the named source's breaker accounting; ok is
// false when the source is unknown or carries no breaker.
func (m *Mediator) BreakerSnapshot(name string) (breaker.Snapshot, bool) {
	src, _, found := m.lookup(name)
	if !found {
		return breaker.Snapshot{}, false
	}
	br := src.Breaker()
	if br == nil {
		return breaker.Snapshot{}, false
	}
	return br.Snapshot(), true
}

// CacheStats snapshots the answer-cache counters (all zero when the cache
// is disabled).
func (m *Mediator) CacheStats() qcache.Stats {
	if m.cache == nil {
		return qcache.Stats{}
	}
	return m.cache.Stats()
}

// Source returns a registered source.
func (m *Mediator) Source(name string) (*source.Source, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.sources[name]
	return s, ok
}

// Knowledge returns a source's mined knowledge.
func (m *Mediator) Knowledge(name string) (*Knowledge, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	k, ok := m.knowledge[name]
	return k, ok
}

// SourceNames lists registered sources in sorted order.
func (m *Mediator) SourceNames() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.sources))
	for n := range m.sources {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
