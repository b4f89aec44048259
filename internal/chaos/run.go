// Package chaos is the end-to-end chaos harness: a deterministic, seeded
// orchestrator that runs a scripted fault scenario against the full QPIAD
// stack — the loadgen mix driving the HTTP server while the scenario
// crashes and restores the source, flaps its fault profile, kills and
// restarts the listener, drains it gracefully, corrupts and reloads the
// on-disk knowledge, and skews the injected clock — with four invariant
// oracles checked across the run:
//
//  1. Degradation soundness: every answer served under chaos either exists
//     in a fault-free oracle run or arrives flagged Degraded/Stale.
//  2. Metric conservation: admitted = Σ endpoint completions, the shed
//     breakdown sums, gauges return to zero, the loadgen identity
//     balances.
//  3. No goroutine leaks: a leakcheck snapshot/diff brackets the run.
//  4. Recovery: once the scenario ends, probe success rate and tail
//     latency return to the pre-fault baseline within the recovery window.
//
// Same seed ⇒ byte-identical event schedule and invariant verdicts (the
// report's Deterministic section); availability, MTTR and latency live in
// the timing section and vary with the machine.
package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"qpiad/internal/afd"
	"qpiad/internal/breaker"
	"qpiad/internal/core"
	"qpiad/internal/faults"
	"qpiad/internal/httpapi"
	"qpiad/internal/leakcheck"
	"qpiad/internal/loadgen"
	"qpiad/internal/nbc"
)

// Config tunes a chaos run. Zero fields take the documented defaults.
type Config struct {
	// Seed drives everything reproducible: world generation, fault
	// profiles, the generated scenario, and the loadgen workload.
	// Default 1.
	Seed int64
	// Scenario is the scripted schedule; nil generates the default
	// full-stack scenario from the seed (see Generate).
	Scenario *Scenario
	// DataN is the generated dataset size. Default 3000.
	DataN int
	// Warmup precedes the scenario window: fault-free probing that
	// establishes the recovery baseline. Default 1s.
	Warmup time.Duration
	// Recovery follows the scenario window: the bounded interval within
	// which the recovery invariant must see the system back at baseline.
	// Default 1.5s.
	Recovery time.Duration
	// ProbeInterval paces the blind prober. Default 20ms.
	ProbeInterval time.Duration
	// ProbeTimeout is the per-probe deadline; a probe that exceeds it
	// counts as down. Default 1s — raise it when the run shares a machine
	// with other heavy work (the in-package tests do), or honest queueing
	// delay masquerades as downtime.
	ProbeTimeout time.Duration
	// LoadWorkers / LoadRate shape the background loadgen traffic
	// (closed loop, token-bucket paced). Defaults 4 workers at 10 req/s
	// each — moderate utilization on purpose: the harness measures
	// availability under faults, and a saturating workload would turn
	// queueing delay into fake outages.
	LoadWorkers int
	LoadRate    float64
	// MaxInFlight arms the server's admission gate. Default 8.
	MaxInFlight int
	// DrainTimeout bounds graceful drains (scenario and teardown).
	// Default 2s.
	DrainTimeout time.Duration
	// Dir is the scratch directory for the knowledge files; empty means a
	// fresh temp dir, removed after the run.
	Dir string
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DataN <= 0 {
		c.DataN = 3000
	}
	if c.Warmup <= 0 {
		c.Warmup = time.Second
	}
	if c.Recovery <= 0 {
		c.Recovery = 1500 * time.Millisecond
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 20 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.LoadWorkers <= 0 {
		c.LoadWorkers = 4
	}
	if c.LoadRate <= 0 {
		c.LoadRate = 10
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 2 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// baseProfile is the mild steady-state fault profile the source starts
// with (and source_restore returns to): realistic background flakiness,
// fully seeded.
func baseProfile(seed int64) faults.Profile {
	return faults.Profile{Seed: seed, TransientRate: 0.02, LatencyJitter: 2 * time.Millisecond}
}

// Run executes one chaos run under ctx and returns its report. An error
// means the harness itself failed to run (world build, oracle down);
// invariant failures are reported in the Report, not as errors.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	scen := cfg.Scenario
	if scen == nil {
		scen = Generate(cfg.Seed, 0)
	}
	if err := scen.Validate(); err != nil {
		return nil, err
	}

	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "qpiad-chaos-*")
		if err != nil {
			return nil, fmt.Errorf("chaos: scratch dir: %w", err)
		}
		//lint:allow errdrop best-effort scratch cleanup
		defer os.RemoveAll(dir)
	}

	// The leak bracket opens before any run goroutine exists.
	leakSnap := leakcheck.Take()

	knowCfg := core.KnowledgeConfig{AFD: afd.Config{MinSupport: 5}, Predictor: nbc.PredictorConfig{}}
	target, err := newHost(worldConfig{
		dataN: cfg.DataN,
		seed:  cfg.Seed,
		coreCfg: core.Config{
			Alpha: 0, K: 8, Parallel: 4,
			Retry: core.RetryPolicy{MaxAttempts: 2, AttemptTimeout: 100 * time.Millisecond},
			// Breaker recovery is scaled to chaos windows: the default 500ms
			// OpenTimeout would swallow most of a short recovery tail, turning
			// a healthy system into a recovery-invariant failure.
			Breaker:  &breaker.Config{OpenTimeout: 150 * time.Millisecond, CloseAfter: 1},
			CacheTTL: 5 * time.Second,
			StaleTTL: time.Hour,
		},
		knowCfg: knowCfg,
		profile: baseProfile(cfg.Seed),
	}, defaultKnowPath(dir), httpapi.WithAdmission(httpapi.AdmissionConfig{
		MaxInFlight:  cfg.MaxInFlight,
		MaxQueue:     2 * cfg.MaxInFlight,
		QueueTimeout: 100 * time.Millisecond,
		RetryAfter:   50 * time.Millisecond,
	}))
	if err != nil {
		return nil, err
	}
	// The oracle: identical seeds, no faults, no breaker/cache machinery —
	// the fault-free reference the soundness invariant compares against.
	oracle, err := newHost(worldConfig{
		dataN:   cfg.DataN,
		seed:    cfg.Seed,
		coreCfg: core.Config{Alpha: 0, K: 8, Parallel: 4},
		knowCfg: knowCfg,
	}, defaultKnowPath(dir)+".oracle")
	if err != nil {
		return nil, err
	}
	if err := oracle.start(); err != nil {
		return nil, err
	}
	if err := target.start(); err != nil {
		oracle.stop(ctx, cfg.DrainTimeout)
		return nil, err
	}

	transport := func() *http.Transport {
		return &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 16}
	}
	// The prober dials fresh every time: POSTs on a pooled connection that
	// died with a server kill are not replayable, so each stale keep-alive
	// conn would read as one fake down probe after every restart. The
	// availability signal must track the listener, not the pool.
	probeTransport := transport()
	probeTransport.DisableKeepAlives = true
	probeClient := &http.Client{Transport: probeTransport}
	loadClient := &http.Client{Transport: transport()}
	oracleClient := &http.Client{Transport: transport()}

	queries := probeQueries()
	oracleSet, oerr := collectOracle(ctx, oracleClient, oracle.baseURL(), queries)
	if oerr != nil {
		target.stop(ctx, cfg.DrainTimeout)
		oracle.stop(ctx, cfg.DrainTimeout)
		return nil, oerr
	}

	// The address survives restarts (the host rebinds the recorded port),
	// so it is read once here rather than taking the host lock per probe.
	targetURL := target.baseURL()
	scenDur := time.Duration(scen.DurationMs) * time.Millisecond
	total := cfg.Warmup + scenDur + cfg.Recovery
	cfg.Logf("chaos: scenario %s (%d events, %v) + %v warmup + %v recovery against %s",
		scen.Name, len(scen.Events), scenDur, cfg.Warmup, cfg.Recovery, targetURL)

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	start := time.Now()

	// Background load: the loadgen mix for the whole run. Its report folds
	// into the metrics section; its identity (Issued = OK+Shed+Errors+
	// Aborted) is one conservation check.
	var (
		wg      sync.WaitGroup
		loadRep *loadgen.Report
		loadErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		//lint:allow errdrop the captured error is read after wg.Wait, in checkConservation
		loadRep, loadErr = loadgen.Run(runCtx, loadgen.Config{
			BaseURL:     targetURL,
			Workers:     cfg.LoadWorkers,
			Duration:    total,
			Rate:        cfg.LoadRate,
			Seed:        cfg.Seed + 100,
			ShedBackoff: 200 * time.Millisecond,
			Client:      loadClient,
		})
	}()

	// The blind prober: fixed rotation at a fixed cadence. Each probe runs
	// in its own goroutine (bounded by a semaphore) so a slow or hung
	// response never stalls the sampling grid — availability and MTTR are
	// measured on probe start times, and a serial prober would smear a
	// 50ms outage across whatever its previous probe's latency was.
	var (
		probeMu    sync.Mutex
		probeLog   []probeRecord
		violations []string
		probeWG    sync.WaitGroup
		probeSem   = make(chan struct{}, 128)
	)
	probe := func(sql string, t0 time.Time) {
		defer func() { <-probeSem }()
		resp, err := postQuery(runCtx, probeClient, targetURL, sql, cfg.ProbeTimeout)
		if err != nil && runCtx.Err() != nil {
			// The run ended with this probe still in flight; its outcome is
			// censored (the harness stopped observing), not a server failure.
			// Recording it as down would charge harness shutdown against the
			// recovery tail.
			return
		}
		rec := probeRecord{at: t0.Sub(start), latency: time.Since(t0)}
		var vio string
		switch {
		case err == nil:
			rec.available = true
			rec.status = http.StatusOK
			if vio = soundnessCheck(oracleSet, sql, resp); vio == "" {
				rec.ok = true
			}
		default:
			var se *statusError
			if errors.As(err, &se) {
				rec.available = true // the server answered, with an error
				rec.status = se.code
			}
		}
		if !rec.ok {
			cfg.Logf("chaos: probe at +%dms not ok: status=%d err=%v", rec.at.Milliseconds(), rec.status, err)
		}
		probeMu.Lock()
		probeLog = append(probeLog, rec)
		if vio != "" {
			violations = append(violations, vio)
		}
		probeMu.Unlock()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer probeWG.Wait()
		ticker := time.NewTicker(cfg.ProbeInterval)
		defer ticker.Stop()
		for i := 0; ; i++ {
			select {
			case <-runCtx.Done():
				return
			case <-ticker.C:
			}
			if time.Since(start) >= total {
				return
			}
			select {
			case probeSem <- struct{}{}:
			case <-runCtx.Done():
				return
			}
			probeWG.Add(1)
			go func(sql string, t0 time.Time) {
				defer probeWG.Done()
				probe(sql, t0)
			}(queries[i%len(queries)], time.Now())
		}
	}()

	// The event executor: single goroutine, events in schedule order,
	// offsets relative to the end of warmup.
	executed := make([]ExecutedEvent, 0, len(scen.Events))
	var execViolations []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		scenStart := start.Add(cfg.Warmup)
		for i, e := range scen.Events {
			if !sleepUntil(runCtx, scenStart.Add(time.Duration(e.AtMs)*time.Millisecond)) {
				return
			}
			rec := ExecutedEvent{Ordinal: i, Action: e.Action, AtMs: e.AtMs,
				ActualMs: time.Since(scenStart).Milliseconds()}
			var err error
			switch e.Action {
			case ActSourceCrash:
				target.setFaults(faults.Profile{Seed: cfg.Seed, TransientRate: 1})
			case ActSourceHang:
				target.setFaults(faults.Profile{Seed: cfg.Seed, TimeoutRate: 1})
			case ActSourceRestore:
				target.setFaults(baseProfile(cfg.Seed))
			case ActFaultsFlap:
				target.setFaults(flapProfile(baseProfile(cfg.Seed), e))
			case ActServerKill:
				err = target.kill()
			case ActServerDrain:
				err = target.drain(runCtx, cfg.DrainTimeout)
			case ActServerRestart:
				err = target.start()
			case ActKnowledgeCorrupt:
				err = target.corruptKnowledge()
			case ActKnowledgeReload:
				var vio string
				vio, err = target.reloadKnowledge()
				if vio != "" {
					execViolations = append(execViolations, vio)
				}
			case ActClockSkew:
				target.skewClock(time.Duration(e.SkewMs) * time.Millisecond)
			}
			if err != nil {
				rec.Err = err.Error()
			}
			cfg.Logf("chaos: event %d %s at +%dms (scheduled %dms)%s",
				i, e.Action, rec.ActualMs, e.AtMs, errSuffix(rec.Err))
			executed = append(executed, rec)
		}
	}()

	// Wait out the run, then stop traffic and join everything.
	if !sleepUntil(ctx, start.Add(total)) {
		cancelRun()
	}
	cancelRun()
	wg.Wait()

	// Quiesce and read the final metrics while the server is still up:
	// in-flight handlers from aborted clients finish within their attempt
	// deadlines, after which the gauges must be zero.
	conservation := checkConservation(ctx, probeClient, targetURL, loadRep, loadErr)

	// Teardown before the leak check: server drained, oracle stopped, all
	// client pools emptied — anything still alive after that is a leak.
	target.stop(ctx, cfg.DrainTimeout)
	oracle.stop(ctx, cfg.DrainTimeout)
	probeClient.CloseIdleConnections()
	loadClient.CloseIdleConnections()
	oracleClient.CloseIdleConnections()
	leaks := leakSnap.Check(leakcheck.WithRetries(100), leakcheck.WithBackoff(10*time.Millisecond))

	// Fold the probe log into availability, MTTR, and the recovery check.
	violations = append(violations, execViolations...)
	for _, ev := range executed {
		if ev.Err != "" {
			violations = append(violations, fmt.Sprintf("event %d (%s) failed: %s", ev.Ordinal, ev.Action, ev.Err))
		}
	}
	rep := foldReport(cfg, scen, probeLog, executed, violations, conservation, leaks, loadRep, time.Since(start))
	return rep, nil
}

// errSuffix renders an optional error for the progress log.
func errSuffix(s string) string {
	if s == "" {
		return ""
	}
	return " err=" + s
}

// sleepUntil waits until the deadline or ctx cancellation; reports whether
// the full wait completed.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// metricsSnapshot is the slice of GET /metrics the conservation oracle
// reads (field names mirror httpapi's wire format).
type metricsSnapshot struct {
	HTTP struct {
		Admission *struct {
			InFlight      int64 `json:"inflight"`
			Queued        int64 `json:"queued"`
			Admitted      int64 `json:"admitted"`
			ShedQueueFull int64 `json:"shed_queue_full"`
			ShedTimeout   int64 `json:"shed_queue_timeout"`
			ShedDeadline  int64 `json:"shed_deadline"`
			Shed          int64 `json:"shed"`
		} `json:"admission"`
		Endpoints map[string]struct {
			Count int64 `json:"count"`
		} `json:"endpoints"`
		ServerErrors int64 `json:"server_errors"`
		Panics       int64 `json:"panics"`
	} `json:"http"`
}

// fetchMetrics polls GET /metrics until the admission gauges are quiescent
// (or the budget runs out) and returns the final snapshot.
func fetchMetrics(ctx context.Context, client *http.Client, baseURL string) (*metricsSnapshot, error) {
	deadline := time.Now().Add(3 * time.Second)
	for {
		m, err := fetchMetricsOnce(ctx, client, baseURL)
		if err == nil && (m.HTTP.Admission == nil ||
			(m.HTTP.Admission.InFlight == 0 && m.HTTP.Admission.Queued == 0)) {
			return m, nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return nil, err
			}
			return m, nil
		}
		if !sleepUntil(ctx, time.Now().Add(50*time.Millisecond)) {
			return m, err
		}
	}
}

func fetchMetricsOnce(ctx context.Context, client *http.Client, baseURL string) (*metricsSnapshot, error) {
	rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	//lint:allow errdrop read-side close after full decode
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		//lint:allow errdrop best-effort drain for connection reuse
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("chaos: /metrics status %d", resp.StatusCode)
	}
	var m metricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// checkConservation verifies the counter identities after quiescence and
// returns the violations (empty = invariant holds).
func checkConservation(ctx context.Context, client *http.Client, baseURL string, load *loadgen.Report, loadErr error) []string {
	var out []string
	m, err := fetchMetrics(ctx, client, baseURL)
	if err != nil {
		return []string{fmt.Sprintf("final /metrics unreadable: %v", err)}
	}
	adm := m.HTTP.Admission
	if adm == nil {
		out = append(out, "admission metrics missing (gate not armed?)")
	} else {
		var completed int64
		for _, ep := range []string{"query", "query_stream", "join"} {
			completed += m.HTTP.Endpoints[ep].Count
		}
		if adm.Admitted != completed {
			out = append(out, fmt.Sprintf("admitted %d != endpoint completions %d", adm.Admitted, completed))
		}
		if adm.InFlight != 0 || adm.Queued != 0 {
			out = append(out, fmt.Sprintf("gauges not quiescent: inflight=%d queued=%d", adm.InFlight, adm.Queued))
		}
		if sum := adm.ShedQueueFull + adm.ShedTimeout + adm.ShedDeadline; adm.Shed != sum {
			out = append(out, fmt.Sprintf("shed %d != reason sum %d", adm.Shed, sum))
		}
	}
	switch {
	case loadErr != nil:
		out = append(out, fmt.Sprintf("loadgen failed: %v", loadErr))
	case load == nil:
		out = append(out, "loadgen produced no report")
	case load.Issued != load.OK+load.Shed+load.Errors+load.Aborted:
		out = append(out, fmt.Sprintf("loadgen issued %d != ok %d + shed %d + errors %d + aborted %d",
			load.Issued, load.OK, load.Shed, load.Errors, load.Aborted))
	}
	return out
}

// foldReport computes availability/MTTR/recovery from the probe log and
// assembles the report with its deterministic and timing sections.
func foldReport(cfg Config, scen *Scenario, probes []probeRecord, executed []ExecutedEvent,
	violations, conservation []string, leaks []leakcheck.Leak, load *loadgen.Report, elapsed time.Duration) *Report {

	met := Metrics{ElapsedMs: elapsed.Milliseconds(), Load: load, Events: executed}
	// Concurrent probes land in the log in completion order; the outage
	// scan below needs start order.
	sort.Slice(probes, func(i, j int) bool { return probes[i].at < probes[j].at })
	var downSpans []time.Duration
	var downStart time.Duration = -1
	for _, p := range probes {
		met.Probes++
		switch {
		case p.ok:
			met.ProbesOK++
		case p.available:
			met.ProbesFailed++
		default:
			met.ProbesDown++
		}
		if !p.available {
			if downStart < 0 {
				downStart = p.at
			}
		} else if downStart >= 0 {
			downSpans = append(downSpans, p.at-downStart)
			downStart = -1
		}
	}
	if downStart >= 0 { // outage open at run end
		downSpans = append(downSpans, elapsed-downStart)
	}
	if met.Probes > 0 {
		met.AvailabilityPct = 100 * float64(met.Probes-met.ProbesDown) / float64(met.Probes)
	}
	met.Outages = len(downSpans)
	var sum, worst time.Duration
	for _, d := range downSpans {
		sum += d
		if d > worst {
			worst = d
		}
	}
	if len(downSpans) > 0 {
		met.MTTRMs = float64(sum.Milliseconds()) / float64(len(downSpans))
		met.LongestOutageMs = float64(worst.Milliseconds())
	}

	// Baseline: OK probes inside the warmup window. Recovery: probes after
	// the scenario window ends.
	recoveryFrom := cfg.Warmup + time.Duration(scen.DurationMs)*time.Millisecond
	var baseLat, recLat []time.Duration
	var recTotal, recOK int
	for _, p := range probes {
		if p.at < cfg.Warmup && p.ok {
			baseLat = append(baseLat, p.latency)
		}
		if p.at >= recoveryFrom {
			recTotal++
			if p.ok {
				recOK++
				recLat = append(recLat, p.latency)
			}
		}
	}
	met.BaselineP95Ms = float64(p95(baseLat).Microseconds()) / 1e3
	met.RecoveryP95Ms = float64(p95(recLat).Microseconds()) / 1e3
	if recTotal > 0 {
		met.RecoveryOKRate = float64(recOK) / float64(recTotal)
	}

	// Recovery verdict: the tail must be answering again (≥90% OK) with a
	// p95 within 10x the warmup baseline (floored generously: at light
	// probe load micro-jitter dominates small baselines).
	recovered := recTotal > 0 && met.RecoveryOKRate >= 0.9
	bound := 10 * met.BaselineP95Ms
	if bound < 500 {
		bound = 500
	}
	if met.RecoveryP95Ms > bound {
		recovered = false
	}
	if !recovered {
		violations = append(violations, fmt.Sprintf(
			"recovery: ok-rate %.2f over %d tail probes, p95 %.1fms vs baseline %.1fms (bound %.1fms)",
			met.RecoveryOKRate, recTotal, met.RecoveryP95Ms, met.BaselineP95Ms, bound))
	}
	for _, l := range leaks {
		violations = append(violations, "goroutine leak: "+l.String())
	}
	violations = append(violations, conservation...)

	det := Deterministic{Seed: cfg.Seed, Scenario: scen.Name}
	for i, e := range scen.Events {
		det.Schedule = append(det.Schedule, ScheduledEvent{
			Ordinal: i, AtMs: e.AtMs, Action: e.Action, Source: e.Source,
			SkewMs: e.SkewMs, FlapUp: e.FlapUp, FlapDn: e.FlapDown,
		})
	}
	soundnessOK := true
	for _, v := range violations {
		if isSoundnessViolation(v) {
			soundnessOK = false
		}
	}
	det.Verdicts = []Verdict{
		{Name: InvSoundness, Passed: soundnessOK},
		{Name: InvConservation, Passed: len(conservation) == 0},
		{Name: InvNoLeaks, Passed: len(leaks) == 0},
		{Name: InvRecovery, Passed: recovered},
	}
	return &Report{Deterministic: det, Metrics: met, Violations: violations}
}

// isSoundnessViolation classifies a violation string as a degradation-
// soundness failure (fabricated answers or accepted corruption).
func isSoundnessViolation(v string) bool {
	for _, sub := range []string{"unflagged answer", "corrupt knowledge", "missing from the oracle"} {
		if strings.Contains(v, sub) {
			return true
		}
	}
	return false
}

// p95 computes the 95th percentile of a small latency sample.
func p95(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (len(sorted) * 95) / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
