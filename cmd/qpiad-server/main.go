// Command qpiad-server runs a QPIAD mediator as a JSON-over-HTTP service —
// the deployment shape of the paper's live web demo. It generates (or
// loads) an incomplete car database, mines knowledge, and serves:
//
//	GET  /healthz
//	GET  /sources
//	GET  /knowledge?source=cars
//	GET  /metrics
//	POST /query            {"sql": "SELECT * FROM cars WHERE body_style = 'Convt'"}
//	POST /query?stream=1   the same selection streamed as NDJSON; add
//	                       "top_n": N to stop once N possible answers are out
//	POST /join             {"left_sql": ..., "right_sql": ..., "on": [a, b]}
//
// Flaky-source simulation: -error-rate/-timeout-rate/-latency-jitter attach
// a deterministic fault injector to every source (seeded by -fault-seed);
// -retries and -attempt-timeout tune the mediator's retry policy.
//
// Overload protection: -max-inflight arms server-side admission control
// (bounded concurrency, a deadline-aware wait queue, and 429 + Retry-After
// load shedding past it — see internal/httpapi). The listener runs behind
// a configured http.Server (slowloris and idle timeouts), and SIGINT or
// SIGTERM drains gracefully: in-flight requests finish, bounded by
// -drain-timeout.
//
// Example session:
//
//	qpiad-server -addr :8080 &
//	curl -s localhost:8080/sources
//	curl -s -X POST localhost:8080/query \
//	     -d '{"sql": "SELECT * FROM cars WHERE body_style = '\''Convt'\''", "k": 5}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"qpiad/internal/afd"
	"qpiad/internal/breaker"
	"qpiad/internal/core"
	"qpiad/internal/datagen"
	"qpiad/internal/faults"
	"qpiad/internal/httpapi"
	"qpiad/internal/nbc"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		csvPath  = flag.String("csv", "", "serve this typed-header CSV as source 'db' instead of generated cars")
		n        = flag.Int("n", 20000, "generated dataset size")
		seed     = flag.Int64("seed", 42, "random seed")
		incmp    = flag.Float64("incomplete", 0.10, "generated incompleteness")
		smplFrac = flag.Float64("sample", 0.10, "training sample fraction")
		alpha    = flag.Float64("alpha", 0, "default F-measure alpha")
		k        = flag.Int("k", 10, "default rewritten-query budget")
		parallel = flag.Int("parallel", 4, "concurrent rewrite issuing")
		top      = flag.Int("top", 0, "default top-N early-stop bound for streamed queries (0 = off; per-request top_n overrides)")

		mineWorkers = flag.Int("mine-workers", 0, "worker goroutines for knowledge mining (0 = GOMAXPROCS)")
		noCache     = flag.Bool("no-cache", false, "disable the mediator answer cache")

		errRate     = flag.Float64("error-rate", 0, "injected transient-error rate per query attempt (deterministic per -fault-seed)")
		timeoutRate = flag.Float64("timeout-rate", 0, "injected timeout rate per query attempt")
		jitter      = flag.Duration("latency-jitter", 0, "injected per-query latency jitter upper bound")
		faultSeed   = flag.Int64("fault-seed", 1, "seed for deterministic fault injection")
		flapUp      = flag.Int("flap-up", 0, "scripted flap: queries served before each down window")
		flapDown    = flag.Int("flap-down", 0, "scripted flap: queries failed per down window (0 = no flapping)")
		retries     = flag.Int("retries", 0, "max attempts per query (0 = default of 3)")
		attemptTO   = flag.Duration("attempt-timeout", 0, "per-attempt deadline (0 = none)")

		useBreaker = flag.Bool("breaker", false, "attach per-source circuit breakers (open circuits skip planned rewrites)")
		cacheTTL   = flag.Duration("cache-ttl", 0, "answer-cache freshness bound (0 = never expires)")
		staleTTL   = flag.Duration("stale-ttl", 0, "serve cached answers up to this old, flagged stale, when the circuit is open (0 = off)")

		maxInflight  = flag.Int("max-inflight", 0, "admission control: concurrent /query + /join bound (0 = admission off)")
		maxQueue     = flag.Int("max-queue", 0, "admission control: wait-queue depth (0 = 2×max-inflight, negative = no queue)")
		queueTimeout = flag.Duration("queue-timeout", 0, "admission control: max time a request queues for a slot (0 = 100ms default)")
		retryAfter   = flag.Duration("retry-after", 0, "back-off hint on shed responses (0 = queue-timeout)")

		readHeaderTimeout = flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
		readTimeout       = flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout (0 = unbounded)")
		writeTimeout      = flag.Duration("write-timeout", 0, "http.Server WriteTimeout (0 = unbounded; streams can be long)")
		idleTimeout       = flag.Duration("idle-timeout", 120*time.Second, "http.Server IdleTimeout for keep-alive connections")
		drainTimeout      = flag.Duration("drain-timeout", 15*time.Second, "max time to finish in-flight requests on SIGINT/SIGTERM")
		drainGrace        = flag.Duration("drain-grace", 0, "keep serving this long after /readyz starts failing, so routing can observe not-ready before the listener closes")
	)
	flag.Parse()

	ccfg := core.Config{
		Alpha: *alpha, K: *k, Parallel: *parallel, TopN: *top,
		Retry:    core.RetryPolicy{MaxAttempts: *retries, AttemptTimeout: *attemptTO},
		CacheTTL: *cacheTTL, StaleTTL: *staleTTL,
	}
	if *useBreaker {
		ccfg.Breaker = &breaker.Config{}
	}
	if *noCache {
		ccfg.NoCache = true
		ccfg.CacheSize = -1
	}
	med, err := buildMediator(*csvPath, *n, *seed, *incmp, *smplFrac, *mineWorkers, ccfg)
	if err != nil {
		log.Fatal(err)
	}
	profile := faults.Profile{
		Seed:          *faultSeed,
		TransientRate: *errRate,
		TimeoutRate:   *timeoutRate,
		LatencyJitter: *jitter,
		FlapUp:        *flapUp,
		FlapDown:      *flapDown,
	}
	if profile.Enabled() {
		for _, name := range med.SourceNames() {
			src, _ := med.Source(name)
			src.SetFaults(faults.New(profile))
		}
		log.Printf("fault injection on: %.0f%% transient, %.0f%% timeout, %v jitter (seed %d)",
			100*profile.TransientRate, 100*profile.TimeoutRate, profile.LatencyJitter, profile.Seed)
	}
	api := httpapi.New(med, admissionOptions(*maxInflight, *maxQueue, *queueTimeout, *retryAfter)...)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	log.Printf("qpiad-server listening on %s (sources: %v)", ln.Addr(), med.SourceNames())
	if *maxInflight > 0 {
		log.Printf("admission control on: max-inflight %d, max-queue %d", *maxInflight, resolvedQueue(*maxInflight, *maxQueue))
	}
	if err := serve(ctx, srv, api, ln, *drainTimeout, *drainGrace); err != nil {
		log.Fatal(err)
	}
	log.Printf("qpiad-server drained and stopped")
}

// admissionOptions maps the admission flags onto httpapi options;
// max-inflight 0 leaves the gate off entirely (the zero-cost default).
func admissionOptions(maxInflight, maxQueue int, queueTimeout, retryAfter time.Duration) []httpapi.Option {
	if maxInflight <= 0 {
		return nil
	}
	return []httpapi.Option{httpapi.WithAdmission(httpapi.AdmissionConfig{
		MaxInFlight:  maxInflight,
		MaxQueue:     maxQueue,
		QueueTimeout: queueTimeout,
		RetryAfter:   retryAfter,
	})}
}

// resolvedQueue mirrors AdmissionConfig.withDefaults for the startup log:
// the flag's 0 means 2×max-inflight, negative means no queue.
func resolvedQueue(maxInflight, maxQueue int) int {
	switch {
	case maxQueue == 0:
		return 2 * maxInflight
	case maxQueue < 0:
		return 0
	}
	return maxQueue
}

// serve runs srv on ln until ctx is cancelled (SIGINT/SIGTERM in main),
// then drains gracefully: no new connections, in-flight requests — long
// NDJSON streams included — get up to drain to finish. Readiness flips
// first: GET /readyz starts failing before Shutdown begins, and the
// listener keeps serving for grace so routing can actually observe
// not-ready and stop sending traffic instead of eating mid-drain
// connection errors (Shutdown closes the listener immediately, so without
// the grace window the flip is externally invisible). A nil api skips the
// readiness flip (tests that drain a bare handler).
func serve(ctx context.Context, srv *http.Server, api *httpapi.Server, ln net.Listener, drain, grace time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if api != nil {
		api.BeginDrain()
		if grace > 0 {
			log.Printf("shutdown signal received, readyz now failing; serving %v more before the drain", grace)
			time.Sleep(grace)
		}
	}
	log.Printf("draining for up to %v", drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		// The drain deadline passed with requests still running; cut them.
		//lint:allow errdrop the drain error below is the actionable one; Close on a dying server adds nothing
		srv.Close()
		return fmt.Errorf("drain incomplete after %v: %w", drain, err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func buildMediator(csvPath string, n int, seed int64, incmp, smplFrac float64, mineWorkers int, cfg core.Config) (*core.Mediator, error) {
	var (
		db   *relation.Relation
		name string
	)
	if csvPath != "" {
		var err error
		db, err = relation.LoadCSV("db", csvPath)
		if err != nil {
			return nil, err
		}
		name = "db"
	} else {
		gd := datagen.Cars(n, seed)
		db, _ = datagen.MakeIncomplete(gd, incmp, seed+1)
		name = "cars"
		db.Name = name
	}
	src := source.New(name, db, source.Capabilities{})
	smplN := int(float64(db.Len()) * smplFrac)
	if smplN < 1 {
		return nil, fmt.Errorf("sample fraction %v leaves no training data", smplFrac)
	}
	smpl := db.Sample(smplN, rand.New(rand.NewSource(seed+2)))
	know, err := core.MineKnowledge(name, smpl,
		float64(db.Len())/float64(smpl.Len()), smpl.IncompleteFraction(),
		core.KnowledgeConfig{AFD: afd.Config{MinSupport: 5}, Predictor: nbc.PredictorConfig{}, Workers: mineWorkers})
	if err != nil {
		return nil, err
	}
	med := core.New(cfg)
	med.Register(src, know)
	return med, nil
}
