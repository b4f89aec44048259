// Package qpiad is the public face of a from-scratch reproduction of
// "Query Processing over Incomplete Autonomous Databases" (Wolf, Khatri,
// Chokshi, Fan, Chen, Kambhampati; VLDB 2007 — introduced as an ICDE 2007
// poster).
//
// QPIAD is a mediator for autonomous web databases whose tuples have
// missing (null) attribute values. Traditional mediators return only the
// certain answers, silently dropping tuples that are relevant but
// incomplete on a constrained attribute. QPIAD additionally retrieves
// those *relevant possible answers* — without binding nulls (which web
// forms refuse) and without modifying the sources — by rewriting the user
// query along mined Approximate Functional Dependencies and ordering the
// rewrites by an F-measure over estimated precision and recall.
//
// A minimal session:
//
//	sys := qpiad.New(qpiad.Config{Alpha: 0, K: 10})
//	sys.AddSource("cars", carsRelation, qpiad.Capabilities{})
//	// Ratio 0: estimate the source/sample size ratio.
//	if err := sys.LearnFromSample("cars", sampleRelation, 0); err != nil { ... }
//	rs, err := sys.Query("cars", qpiad.NewQuery("cars",
//	    qpiad.Eq("body_style", qpiad.String("Convt"))))
//	// rs.Certain — exact matches; rs.Possible — ranked possible answers.
//
// The heavy lifting lives in the internal packages (relation, afd, nbc,
// sample, source, core, baseline); this package re-exports the types a
// client needs and wires them with sensible defaults.
package qpiad

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"qpiad/internal/afd"
	"qpiad/internal/breaker"
	"qpiad/internal/core"
	"qpiad/internal/faults"
	"qpiad/internal/httpapi"
	"qpiad/internal/latency"
	"qpiad/internal/loadgen"
	"qpiad/internal/nbc"
	"qpiad/internal/qcache"
	"qpiad/internal/relation"
	"qpiad/internal/sample"
	"qpiad/internal/source"
	"qpiad/internal/sqlish"
)

// Re-exported data-model types. See the internal/relation package for full
// documentation of each.
type (
	// Relation is an in-memory table with typed values and explicit nulls.
	Relation = relation.Relation
	// Schema is an ordered attribute list.
	Schema = relation.Schema
	// Attribute is a named, typed column.
	Attribute = relation.Attribute
	// Tuple is a row of values.
	Tuple = relation.Tuple
	// Value is a typed attribute value (string/int/float/bool/null).
	Value = relation.Value
	// Kind enumerates value types.
	Kind = relation.Kind
	// Query is a conjunctive selection, optionally with an aggregate.
	Query = relation.Query
	// Predicate is one selection condition.
	Predicate = relation.Predicate
	// Aggregate pairs an aggregate function with its attribute.
	Aggregate = relation.Aggregate
)

// Value kinds.
const (
	KindNull   = relation.KindNull
	KindString = relation.KindString
	KindInt    = relation.KindInt
	KindFloat  = relation.KindFloat
	KindBool   = relation.KindBool
)

// Aggregate functions.
const (
	AggCount = relation.AggCount
	AggSum   = relation.AggSum
	AggAvg   = relation.AggAvg
	AggMin   = relation.AggMin
	AggMax   = relation.AggMax
)

// Value constructors.
var (
	// Null is the missing value.
	Null = relation.Null
	// String builds a string value.
	String = relation.String
	// Int builds an integer value.
	Int = relation.Int
	// Float builds a float value.
	Float = relation.Float
	// Bool builds a boolean value.
	Bool = relation.Bool
)

// Schema and relation constructors.
var (
	// NewSchema builds a schema from attributes.
	NewSchema = relation.NewSchema
	// MustSchema is NewSchema that panics on error.
	MustSchema = relation.MustSchema
	// NewRelation creates an empty relation.
	NewRelation = relation.New
	// LoadCSV reads a relation from a typed-header CSV file.
	LoadCSV = relation.LoadCSV
	// ReadCSV reads a relation from a typed-header CSV stream.
	ReadCSV = relation.ReadCSV
)

// Query constructors.
var (
	// NewQuery builds a selection query.
	NewQuery = relation.NewQuery
	// Eq builds an equality predicate.
	Eq = relation.Eq
	// Between builds an inclusive range predicate.
	Between = relation.Between
)

// Statement is a parsed SQL statement: the relational query plus an
// optional projection column list.
type Statement = sqlish.Statement

// ParseSQL parses a small SQL dialect into a query, e.g.
//
//	SELECT * FROM cars WHERE body_style = 'Convt'
//	SELECT make, model FROM cars WHERE price BETWEEN 15000 AND 20000
//	SELECT COUNT(*) FROM cars WHERE model = 'Accord'
//
// Call Statement.CoerceTypes with the target schema to align literal types
// before executing.
func ParseSQL(input string) (*Statement, error) {
	return sqlish.Parse(input)
}

// Mediator-layer types.
type (
	// Capabilities is an autonomous source's access-pattern profile.
	Capabilities = source.Capabilities
	// SourceStats is per-source query/tuple accounting.
	SourceStats = source.Stats
	// SourceMetrics is the full per-source accounting: counters plus the
	// latency histogram.
	SourceMetrics = source.Metrics
	// LatencyStats is a source's query-latency histogram.
	LatencyStats = source.LatencyStats
	// FaultProfile describes a source's injected failure behavior
	// (deterministic per seed).
	FaultProfile = faults.Profile
	// FaultStats counts the faults an injector actually dealt.
	FaultStats = faults.Stats
	// RetryPolicy bounds the mediator's per-query retries, backoff and
	// deadlines.
	RetryPolicy = core.RetryPolicy
	// BreakerConfig tunes the per-source circuit breakers (zero fields take
	// defaults; see internal/breaker).
	BreakerConfig = breaker.Config
	// BreakerState is a circuit state: closed, open, or half-open.
	BreakerState = breaker.State
	// BreakerSnapshot is a point-in-time view of one source's circuit
	// breaker: state, health score, failure window, and counters.
	BreakerSnapshot = breaker.Snapshot
	// CacheStats is a snapshot of the mediator answer-cache counters
	// (hits, misses, evictions, coalesced duplicate queries, entries).
	CacheStats = qcache.Stats
	// Answer is one returned tuple with its relevance assessment.
	Answer = core.Answer
	// ResultSet is the outcome of a selection query: certain answers, then
	// ranked possible answers, then the unranked multi-null tail. One
	// served from the answer cache shares its sections with the cache:
	// reslice, append or Project it, reorder it only with SortBy, and never
	// write to an answer in place.
	ResultSet = core.ResultSet
	// RewrittenQuery is one issued rewrite with its ranking statistics.
	RewrittenQuery = core.RewrittenQuery
	// StreamEvent is one message from the streaming executor: a run of
	// answers, a rewrite outcome, or the final summary. A run's Answers
	// share their array with the summary's result set: read them, never
	// write to one in place.
	StreamEvent = core.StreamEvent
	// StreamEventKind enumerates streaming event types.
	StreamEventKind = core.StreamEventKind
	// StreamSummary ends a stream with the reassembled ResultSet and the
	// early-termination savings accounting.
	StreamSummary = core.StreamSummary
	// AggAnswer is the outcome of an aggregate query.
	AggAnswer = core.AggAnswer
	// AggOptions tunes aggregate processing.
	AggOptions = core.AggOptions
	// JoinSpec describes a two-way join query.
	JoinSpec = core.JoinSpec
	// JoinResult is the outcome of a join query.
	JoinResult = core.JoinResult
	// JoinAnswer is one joined tuple pair.
	JoinAnswer = core.JoinAnswer
	// ChainSpec describes an n-way chain join (multi-way extension).
	ChainSpec = core.ChainSpec
	// ChainResult is the outcome of a chain join.
	ChainResult = core.ChainResult
	// ChainAnswer is one joined chain of tuples.
	ChainAnswer = core.ChainAnswer
	// GlobalResult is the merged outcome of a global-schema query fanned
	// out across every registered source.
	GlobalResult = core.GlobalResult
	// Knowledge is a source's mined statistics (AFDs, classifiers,
	// selectivity estimates).
	Knowledge = core.Knowledge
	// AFD is a mined approximate functional dependency.
	AFD = afd.AFD
)

// Streaming event kinds.
const (
	// StreamEventAnswer carries a run of answers of one kind: the whole
	// certain section, or one rewrite's possible or unranked answers.
	StreamEventAnswer = core.StreamEventAnswer
	// StreamEventRewrite reports one chosen rewrite's final outcome.
	StreamEventRewrite = core.StreamEventRewrite
	// StreamEventSummary is the final event before the channel closes.
	StreamEventSummary = core.StreamEventSummary
	// StreamEventPanic ends a stream whose pipeline panicked; re-raise its
	// Panic on the consuming goroutine.
	StreamEventPanic = core.StreamEventPanic
)

// ErrEarlyStop marks a rewrite skipped or cancelled by the top-N confidence
// bound; it never degrades the result set.
var ErrEarlyStop = core.ErrEarlyStop

// ErrCircuitOpen marks a query rejected (or a planned rewrite skipped)
// because the source's circuit breaker was open. Match with errors.Is.
var ErrCircuitOpen = breaker.ErrOpen

// Circuit breaker states.
const (
	// BreakerClosed admits every query (normal operation).
	BreakerClosed = breaker.StateClosed
	// BreakerOpen rejects every query until the open timeout elapses.
	BreakerOpen = breaker.StateOpen
	// BreakerHalfOpen admits a bounded number of probe queries.
	BreakerHalfOpen = breaker.StateHalfOpen
)

// Aggregate inclusion rules (Section 4.4).
const (
	// RuleArgmax includes a rewrite's whole aggregate iff the predicted
	// most-likely value satisfies the predicate (the paper's rule).
	RuleArgmax = core.RuleArgmax
	// RuleFractional weighs each rewrite's aggregate by its precision
	// (the footnote-4 alternative).
	RuleFractional = core.RuleFractional
)

// Config tunes a System.
type Config struct {
	// Alpha is the F-measure weight: 0 = precision-only ordering,
	// 1 = balanced, larger favors recall. Default 0.
	Alpha float64
	// K caps the rewritten queries issued per user query. Default 10;
	// K < 0 means unlimited.
	K int
	// TopN, when > 0, arms the streaming executor's confidence-bound early
	// termination (QueryStream): once TopN possible answers have been
	// delivered, the remaining rewrites are provably unable to improve the
	// top-N and are skipped or cancelled, saving source queries and tuple
	// transfer. 0 streams everything; batch Query ignores TopN.
	TopN int
	// AFD tunes dependency mining (zero value = paper defaults: β=0.5,
	// δ=0.3, determining sets up to 3 attributes).
	AFD afd.Config
	// Predictor tunes the missing-value classifiers (zero value = the
	// paper's Hybrid One-AFD with m-estimate smoothing).
	Predictor nbc.PredictorConfig
	// Parallel bounds concurrent rewritten-query issuing per user query
	// (0 or 1 = sequential). Results are identical either way; only
	// wall-clock time changes when sources have latency.
	Parallel int
	// Retry bounds how the fetch path survives flaky sources: attempts,
	// exponential backoff, per-attempt and per-query deadlines. The zero
	// value resolves to 3 attempts with a small backoff and is inert
	// against reliable sources.
	Retry RetryPolicy
	// MineWorkers bounds the goroutines used by offline knowledge mining
	// (per-attribute predictor training and TANE level scoring). 0 means
	// GOMAXPROCS; 1 forces sequential mining. Mined knowledge is identical
	// for any value.
	MineWorkers int
	// NoCache disables the mediator answer cache: every query runs the full
	// rewrite-and-fetch pipeline. The cache is transparent — it only serves
	// a result produced by the identical (source, query, α/K/ordering)
	// call — so this is an ops/benchmarking knob, not a semantic one.
	NoCache bool
	// CacheSize bounds the answer cache in entries. 0 means the default
	// (1024). Ignored when NoCache is set.
	CacheSize int
	// Breaker, when non-nil, attaches a circuit breaker with this
	// configuration to every registered source: failing sources trip open,
	// open sources are skipped at plan time (their estimated cost is
	// accounted in ResultSet.EstSavedTuples), and half-open probes decide
	// recovery. Zero fields take defaults.
	Breaker *BreakerConfig
	// CacheTTL bounds how long a cached answer is served as fresh. 0 means
	// no expiry (the pre-TTL behavior). Expired entries stay readable for
	// the stale-fallback path until StaleTTL also lapses.
	CacheTTL time.Duration
	// StaleTTL arms the stale-cache fallback: when the circuit for a source
	// is open and a cached answer no older than StaleTTL exists, it is
	// served flagged ResultSet.Stale instead of failing. 0 disables the
	// fallback.
	StaleTTL time.Duration
}

// System is a configured QPIAD mediator over registered sources.
type System struct {
	cfg Config
	med *core.Mediator
}

// New creates a System.
func New(cfg Config) *System {
	k := cfg.K
	if k == 0 {
		k = 10
	}
	if k < 0 {
		k = 0 // core interprets 0 as unlimited
	}
	ccfg := core.Config{
		Alpha:     cfg.Alpha,
		K:         k,
		TopN:      cfg.TopN,
		Parallel:  cfg.Parallel,
		Retry:     cfg.Retry,
		CacheSize: cfg.CacheSize,
		Breaker:   cfg.Breaker,
		CacheTTL:  cfg.CacheTTL,
		StaleTTL:  cfg.StaleTTL,
	}
	if cfg.NoCache {
		ccfg.NoCache = true
		ccfg.CacheSize = -1
	}
	return &System{
		cfg: cfg,
		med: core.New(ccfg),
	}
}

// Mediator exposes the underlying mediator for advanced use: direct
// knowledge access, and queries under a per-call Config (ordering
// ablations pass one to each call).
func (s *System) Mediator() *core.Mediator { return s.med }

// AddSource registers a relation as an autonomous source with the given
// access profile. Knowledge must be learned (LearnFromSample or
// LearnByProbing) before the source can answer QPIAD queries; sources
// reached only through correlated knowledge (Section 4.3) may stay
// unlearned.
func (s *System) AddSource(name string, rel *Relation, caps Capabilities) error {
	if name == "" || rel == nil {
		return fmt.Errorf("qpiad: AddSource needs a name and a relation")
	}
	if _, exists := s.med.Source(name); exists {
		return fmt.Errorf("qpiad: source %q already registered", name)
	}
	s.med.Register(source.New(name, rel, caps), nil)
	return nil
}

// LearnFromSample mines AFDs, classifiers and selectivity estimates for a
// registered source from an already-obtained sample relation. ratio is the
// source-size over sample-size scaling (pass 0 to estimate it as
// sourceSize/sampleSize when the source size is known).
func (s *System) LearnFromSample(name string, smpl *Relation, ratio float64) error {
	src, ok := s.med.Source(name)
	if !ok {
		return fmt.Errorf("qpiad: unknown source %q", name)
	}
	if ratio == 0 {
		if smpl.Len() == 0 {
			return fmt.Errorf("qpiad: empty sample for %q", name)
		}
		ratio = float64(src.Size()) / float64(smpl.Len())
	}
	k, err := core.MineKnowledge(name, smpl, ratio, smpl.IncompleteFraction(), core.KnowledgeConfig{
		AFD:       s.cfg.AFD,
		Predictor: s.cfg.Predictor,
		Workers:   s.cfg.MineWorkers,
	})
	if err != nil {
		return err
	}
	s.med.Register(src, k)
	return nil
}

// ProbeConfig re-exports the random-probing sampler configuration.
type ProbeConfig = sample.Config

// LearnByProbing samples the source with random probing queries through
// its restricted interface (the paper's offline knowledge-mining protocol)
// and mines knowledge from the probed sample.
func (s *System) LearnByProbing(name string, cfg ProbeConfig, seed int64) error {
	src, ok := s.med.Source(name)
	if !ok {
		return fmt.Errorf("qpiad: unknown source %q", name)
	}
	if cfg.Rng == nil {
		cfg.Rng = rand.New(rand.NewSource(seed))
	}
	res, err := sample.Probe(src, cfg)
	if err != nil {
		return err
	}
	ratio := float64(src.Size()) / float64(res.Sample.Len())
	k, err := core.MineKnowledge(name, res.Sample, ratio, res.PerInc, core.KnowledgeConfig{
		AFD:       s.cfg.AFD,
		Predictor: s.cfg.Predictor,
		Workers:   s.cfg.MineWorkers,
	})
	if err != nil {
		return err
	}
	s.med.Register(src, k)
	return nil
}

// Query runs the QPIAD selection algorithm: certain answers plus ranked
// relevant possible answers (Section 4.2).
func (s *System) Query(sourceName string, q Query) (*ResultSet, error) {
	//lint:allow ctxflow audited root: context-free facade method over QuerySelectWithCtx
	return s.med.QuerySelectWithCtx(context.Background(), s.med.Config(), sourceName, q)
}

// QueryCtx is Query under a caller-supplied context: cancelling ctx aborts
// in-flight source attempts and retry backoffs promptly.
func (s *System) QueryCtx(ctx context.Context, sourceName string, q Query) (*ResultSet, error) {
	return s.med.QuerySelectWithCtx(ctx, s.med.Config(), sourceName, q)
}

// QueryStream runs the QPIAD selection algorithm as a stream: the certain
// answers are delivered as one run as soon as the base query returns,
// possible answers as runs in rank order as each rewritten query completes,
// and a final summary carries the reassembled ResultSet. With Config.TopN > 0 the
// executor stops issuing rewrites once the top-N possible answers are
// provably in hand, saving source queries and tuple transfer. Cancelling ctx
// aborts the stream.
func (s *System) QueryStream(ctx context.Context, sourceName string, q Query) (<-chan StreamEvent, error) {
	return s.med.SelectStreamWith(ctx, s.med.Config(), sourceName, q)
}

// QueryCorrelated answers a query whose constrained attribute the target
// source does not support, using knowledge from a correlated source
// (Section 4.3).
func (s *System) QueryCorrelated(targetSource string, q Query) (*ResultSet, error) {
	//lint:allow ctxflow audited root: context-free facade method over QuerySelectCorrelatedCtx
	return s.med.QuerySelectCorrelatedCtx(context.Background(), targetSource, q)
}

// QueryGlobal runs a selection on the mediator's global schema against
// every registered source — directly where the source supports the query
// and has learned knowledge, through correlated knowledge where it lacks
// the constrained attribute — and merges the ranked possible answers.
func (s *System) QueryGlobal(q Query) (*GlobalResult, error) {
	//lint:allow ctxflow audited root: context-free facade method over QuerySelectGlobalCtx
	return s.med.QuerySelectGlobalCtx(context.Background(), q)
}

// QueryAggregate processes an aggregate query, optionally folding in
// incomplete tuples via rewritten queries and predicted values
// (Section 4.4).
func (s *System) QueryAggregate(sourceName string, q Query, opts AggOptions) (*AggAnswer, error) {
	//lint:allow ctxflow audited root: context-free facade method over QueryAggregateWithCtx
	return s.med.QueryAggregateWithCtx(context.Background(), s.med.Config(), sourceName, q, opts)
}

// QueryJoin processes a two-way join over incomplete sources via ranked
// query pairs (Section 4.5). A base set that comes back empty ends the
// join before any rewrite is sent; JoinResult.EstSavedTuples counts what
// that saved.
func (s *System) QueryJoin(spec JoinSpec) (*JoinResult, error) {
	//lint:allow ctxflow audited root: context-free facade method over QueryJoinCtx
	return s.med.QueryJoinCtx(context.Background(), spec)
}

// QueryJoinChain processes an n-way chain join, planning each adjacency as
// a Section 4.5 query-pair problem (the paper's footnote 5 extension). As
// with QueryJoin, an empty base set ends the chain before any rewrite is
// sent.
func (s *System) QueryJoinChain(spec ChainSpec) (*ChainResult, error) {
	//lint:allow ctxflow audited root: context-free facade method over QueryJoinChainCtx
	return s.med.QueryJoinChainCtx(context.Background(), spec)
}

// Knowledge returns the mined knowledge of a source, if learned.
func (s *System) Knowledge(sourceName string) (*Knowledge, bool) {
	return s.med.Knowledge(sourceName)
}

// SaveKnowledge persists a source's mined knowledge to a file. The probed
// sample is the expensive artifact (it was acquired through the source's
// restricted interface); loading re-mines it deterministically.
func (s *System) SaveKnowledge(sourceName, path string) error {
	k, ok := s.med.Knowledge(sourceName)
	if !ok {
		return fmt.Errorf("qpiad: no knowledge for source %q", sourceName)
	}
	return k.SaveFile(path, core.KnowledgeConfig{AFD: s.cfg.AFD, Predictor: s.cfg.Predictor})
}

// LoadKnowledge restores previously saved knowledge for a registered
// source, skipping the probing phase entirely.
func (s *System) LoadKnowledge(sourceName, path string) error {
	src, ok := s.med.Source(sourceName)
	if !ok {
		return fmt.Errorf("qpiad: unknown source %q", sourceName)
	}
	k, err := core.LoadKnowledgeFile(path)
	if err != nil {
		return err
	}
	s.med.Register(src, k)
	return nil
}

// CacheStats returns the mediator answer-cache counters: hits, misses,
// evictions, coalesced concurrent duplicates, and current entries. All zero
// when the cache is disabled (Config.NoCache).
func (s *System) CacheStats() CacheStats {
	return s.med.CacheStats()
}

// SourceStats returns the access accounting of a registered source.
func (s *System) SourceStats(sourceName string) (SourceStats, bool) {
	src, ok := s.med.Source(sourceName)
	if !ok {
		return SourceStats{}, false
	}
	return src.Stats(), true
}

// SourceMetrics returns the full accounting snapshot of a registered
// source: counters plus the latency histogram.
func (s *System) SourceMetrics(sourceName string) (SourceMetrics, bool) {
	src, ok := s.med.Source(sourceName)
	if !ok {
		return SourceMetrics{}, false
	}
	return src.Metrics(), true
}

// InjectFaults attaches a deterministic fault profile to a registered
// source: accepted queries then suffer seeded transient errors, timeouts,
// latency jitter and page truncation, exactly reproducibly per seed. A zero
// profile detaches injection.
func (s *System) InjectFaults(sourceName string, p FaultProfile) error {
	src, ok := s.med.Source(sourceName)
	if !ok {
		return fmt.Errorf("qpiad: unknown source %q", sourceName)
	}
	if !p.Enabled() {
		src.SetFaults(nil)
		return nil
	}
	src.SetFaults(faults.New(p))
	return nil
}

// BreakerSnapshot returns the circuit-breaker view of a registered source,
// false when the source is unknown or breakers are not configured.
func (s *System) BreakerSnapshot(sourceName string) (BreakerSnapshot, bool) {
	return s.med.BreakerSnapshot(sourceName)
}

// StaleServed reports how many queries were answered from the stale cache
// because the source's circuit was open.
func (s *System) StaleServed() int64 {
	return s.med.StaleServed()
}

// FaultStats returns the injected-fault accounting of a source, false when
// no injector is attached.
func (s *System) FaultStats(sourceName string) (FaultStats, bool) {
	src, ok := s.med.Source(sourceName)
	if !ok {
		return FaultStats{}, false
	}
	inj := src.Faults()
	if inj == nil {
		return FaultStats{}, false
	}
	return inj.Stats(), true
}

// Serving and load-harness layer (internal/httpapi, internal/loadgen,
// internal/latency). See cmd/qpiad-server and cmd/qpiad-loadgen for the
// ready-made binaries.
type (
	// AdmissionConfig tunes the HTTP server's admission gate: a bounded
	// in-flight semaphore with a deadline-aware wait queue and 429 +
	// Retry-After load shedding past it.
	AdmissionConfig = httpapi.AdmissionConfig
	// LoadConfig tunes a load-harness run: closed or open loop, worker
	// count, per-worker token-bucket rate, seeded query mix, SLO.
	LoadConfig = loadgen.Config
	// LoadMix weighs the generated query classes (point/range/join/stream).
	LoadMix = loadgen.Mix
	// LoadMode is the loop discipline: LoadModeClosed or LoadModeOpen.
	LoadMode = loadgen.Mode
	// LoadReport is a folded load run: goodput, shed rate, p50/p95/p99
	// latency and time-to-first-answer, SLO violations.
	LoadReport = loadgen.Report
	// LatencyHist is the lock-free mergeable exponential-bucket latency
	// histogram shared by the server and the load harness.
	LatencyHist = latency.Hist
	// LatencySummary is a point-in-time histogram digest (count, sum,
	// p50/p95/p99).
	LatencySummary = latency.Summary
)

// Load-harness loop disciplines.
const (
	// LoadModeClosed issues each worker's next request after the previous
	// completes.
	LoadModeClosed = loadgen.ModeClosed
	// LoadModeOpen fires on a fixed per-worker schedule, measuring latency
	// from the intended start (coordinated-omission aware).
	LoadModeOpen = loadgen.ModeOpen
)

// NewHTTPHandler wraps the System's mediator as the JSON-over-HTTP API
// served by cmd/qpiad-server (GET /healthz /sources /knowledge /metrics,
// POST /query, /query?stream=1, /join). Pass WithAdmission to bound
// concurrent query execution and shed overload with 429 + Retry-After.
func (s *System) NewHTTPHandler(opts ...httpapi.Option) http.Handler {
	return httpapi.New(s.med, opts...)
}

// WithAdmission arms server-side admission control on a NewHTTPHandler.
func WithAdmission(cfg AdmissionConfig) httpapi.Option { return httpapi.WithAdmission(cfg) }

// RunLoad drives a load-harness run against a server URL and returns the
// folded report. Cancelling ctx ends the run early; the report covers what
// completed.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	return loadgen.Run(ctx, cfg)
}
