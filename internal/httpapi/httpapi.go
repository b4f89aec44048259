// Package httpapi exposes a QPIAD mediator as a JSON-over-HTTP web
// service — the deployment shape of the paper's system, which ran as a
// live web demo with a form-based interface. Endpoints:
//
//	GET  /healthz            liveness plus per-source admission state: each
//	                         source's circuit-breaker state and health score;
//	                         overall status degrades when any circuit is open
//	GET  /readyz             readiness: 200 while accepting traffic, 503 the
//	                         moment BeginDrain is called (liveness /healthz
//	                         keeps answering through the drain window)
//	GET  /sources            registered sources, schemas, accounting
//	GET  /knowledge?source=S mined AFDs / AKeys / pruned AFDs for S
//	GET  /metrics            per-source query/retry/error counters with
//	                         latency percentiles, breaker counters,
//	                         per-source knowledge-memo counters, plus
//	                         answer-cache and staleness counters
//	POST /query              {"sql": "SELECT ..."} → certain + ranked
//	                         possible answers (or the aggregate result),
//	                         with confidences and AFD explanations
//	POST /query?stream=1     the same selection, streamed as NDJSON: one
//	                         answer/rewrite event per line as results
//	                         arrive, closed by a summary line
//	POST /join               {"left_sql": ..., "right_sql": ..., "on":
//	                         [l, r]} → ranked joined pairs (Section 4.5)
//
// The FROM clause of the SQL names the source to query. Query handling is
// fully concurrent: per-request α/K overrides are applied through the
// mediator's per-call (With-variant) entry points, never by mutating the
// shared configuration.
//
// WithAdmission arms server-side admission control (see admission.go): the
// expensive POST endpoints run under a bounded in-flight semaphore with a
// bounded, deadline-aware wait queue, and excess load is shed with 429 +
// Retry-After instead of queueing without bound. Admission also turns on
// per-endpoint latency histograms; both appear under "http" on
// GET /metrics. Without the option the request path is exactly the
// pre-admission one — no gate, no clock reads.
package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qpiad/internal/breaker"
	"qpiad/internal/core"
	"qpiad/internal/latency"
	"qpiad/internal/qcache"
	"qpiad/internal/relation"
	"qpiad/internal/sqlish"
)

// Server wraps a mediator as an http.Handler.
type Server struct {
	med *core.Mediator
	mux *http.ServeMux

	// adm is the admission gate; nil means every request is admitted and
	// no per-endpoint latency is recorded (the zero-cost default).
	adm *admission
	// endpoints holds the per-endpoint service-time histograms, built only
	// when admission is configured. The map is read-only after New.
	endpoints map[string]*latency.Hist

	// Streaming accounting, exposed under /metrics.
	streamRequests atomic.Int64 // stream=1 requests accepted
	streamEvents   atomic.Int64 // NDJSON lines written
	streamStops    atomic.Int64 // streams that early-stopped on the top-N bound

	// Error accounting: disconnects are clients abandoning a request
	// mid-flight (their context fired), counted apart from genuine 5xx
	// server errors so a load test's client-side timeouts don't read as
	// server failures.
	clientDisconnects atomic.Int64
	serverErrors      atomic.Int64
	// panics counts handler panics caught by the recovery middleware; each
	// is also a server error. Admission slots are never leaked by a panic:
	// release is deferred inside the admitted frame, so it runs during the
	// unwinding before the recovery middleware regains control.
	panics atomic.Int64

	// draining flips once BeginDrain is called: GET /readyz starts failing
	// immediately so routers stop sending new traffic, while /healthz stays
	// live for the requests still finishing inside the drain window.
	draining atomic.Bool
}

// Option customises a Server at construction time.
type Option func(*Server)

// WithAdmission installs the admission gate in front of POST /query and
// POST /join and turns on per-endpoint latency histograms. Zero fields of
// cfg take defaults (see AdmissionConfig).
func WithAdmission(cfg AdmissionConfig) Option {
	return func(s *Server) { s.adm = newAdmission(cfg) }
}

// endpointNames are the per-endpoint histogram keys.
var endpointNames = []string{"healthz", "sources", "knowledge", "metrics", "query", "query_stream", "join"}

// New builds the handler around a configured mediator.
func New(med *core.Mediator, opts ...Option) *Server {
	s := &Server{med: med, mux: http.NewServeMux()}
	for _, opt := range opts {
		opt(s)
	}
	if s.adm != nil {
		s.endpoints = make(map[string]*latency.Hist, len(endpointNames))
		for _, name := range endpointNames {
			s.endpoints[name] = &latency.Hist{}
		}
	}
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealth))
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /sources", s.instrument("sources", s.handleSources))
	s.mux.HandleFunc("GET /knowledge", s.instrument("knowledge", s.handleKnowledge))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("POST /query", s.admitted(queryEndpoint, s.handleQuery))
	s.mux.HandleFunc("POST /join", s.admitted(func(*http.Request) string { return "join" }, s.handleJoin))
	return s
}

// ServeHTTP implements http.Handler. Every request runs under the panic
// recovery middleware: a handler panic answers a structured 500 (when the
// response has not started) instead of killing the connection with no
// accounting, and is counted under both panics and server_errors.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tw := &trackingWriter{ResponseWriter: w}
	defer func() {
		if v := recover(); v != nil {
			// net/http's own recovery would abort the connection silently;
			// here the panic becomes an observable outcome. Deferred frames
			// below us (admission release, endpoint recording) have already
			// run during the unwinding, so gauges and histograms balance.
			s.panics.Add(1)
			if !tw.wrote {
				s.writeErr(tw, http.StatusInternalServerError, "internal error: handler panic: %v", v)
				return
			}
			// Mid-response (e.g. mid-stream) the status is already out;
			// count the failure and let the connection die.
			s.serverErrors.Add(1)
		}
	}()
	s.mux.ServeHTTP(tw, r)
}

// trackingWriter records whether the response has started, so the panic
// middleware knows if a structured 500 can still be written. Flush is
// forwarded for NDJSON streaming.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (t *trackingWriter) WriteHeader(code int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackingWriter) Write(b []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(b)
}

func (t *trackingWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with per-endpoint service-time recording when
// admission metrics are on; otherwise it returns the handler untouched.
// Recording is deferred so panicking requests still land in the histogram:
// the conservation invariant admitted == sum(endpoint completions) holds
// even under handler panics.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	if s.adm == nil {
		return h
	}
	hist := s.endpoints[name]
	clock := s.adm.clock
	return func(w http.ResponseWriter, r *http.Request) {
		start := clock()
		defer func() { hist.Record(clock().Sub(start)) }()
		h(w, r)
	}
}

// BeginDrain flips the server not-ready: GET /readyz starts failing
// immediately (503) while /healthz keeps answering for the in-flight
// requests a graceful shutdown lets finish. Call it the moment a drain is
// decided — before http.Server.Shutdown — so upstream routing stops
// sending traffic that would otherwise die mid-drain as 499s.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// EndDrain flips the server back to ready. A production process exits
// after a drain, but a handler reused across listener restarts (the chaos
// harness drains and then rebinds the same port, keeping every counter)
// needs readiness to recover once traffic may flow again.
func (s *Server) EndDrain() { s.draining.Store(false) }

// handleReady serves GET /readyz: the readiness half of the
// readiness/liveness split. It fails during drain while /healthz stays
// live; chaos restarts and multi-instance routing key off this signal.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// admitted wraps an expensive handler with the admission gate and, like
// instrument, deferred service-time recording, under the histogram that
// endpoint names for the request. Shed requests answer 429 with a
// Retry-After hint and a structured body without entering the handler.
func (s *Server) admitted(endpoint func(*http.Request) string, h http.HandlerFunc) http.HandlerFunc {
	if s.adm == nil {
		return h
	}
	clock := s.adm.clock
	return func(w http.ResponseWriter, r *http.Request) {
		release, shed, err := s.adm.acquire(r.Context())
		if err != nil {
			// The client hung up while queued.
			s.writeDisconnect(w)
			return
		}
		if shed != "" {
			s.writeShed(w, shed)
			return
		}
		defer release()
		hist, start := s.endpoints[endpoint(r)], clock()
		defer func() { hist.Record(clock().Sub(start)) }()
		h(w, r)
	}
}

// queryEndpoint names POST /query's histogram: the stream's or the
// batch's.
func queryEndpoint(r *http.Request) string {
	if streamRequested(r) {
		return "query_stream"
	}
	return "query"
}

// streamRequested reports whether the request asked for the NDJSON stream.
func streamRequested(r *http.Request) bool {
	v := r.URL.Query().Get("stream")
	return v != "" && v != "0" && v != "false"
}

// writeShed answers a shed request: 429, Retry-After in whole seconds
// (rounded up, minimum 1), and the exact hint in the JSON body.
func (s *Server) writeShed(w http.ResponseWriter, reason shedReason) {
	retryAfter := s.adm.cfg.RetryAfter
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	s.writeJSON(w, http.StatusTooManyRequests, shedBody{
		Error:        fmt.Sprintf("overloaded: request shed (%s)", reason),
		Shed:         true,
		Reason:       string(reason),
		RetryAfterMs: int64(retryAfter / time.Millisecond),
	})
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON writes v as an indented JSON body. It marshals before the status
// goes out, so a value encoding/json refuses answers 500 (a server error)
// instead of a 200 with an empty body.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	s.writeBody(w, code, append(body, '\n'))
}

// writeBody sends a complete JSON body. A failed write means the client hung
// up mid-body and is counted as a disconnect.
func (s *Server) writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(body); err != nil {
		s.clientDisconnects.Add(1)
	}
}

// replyBufs holds the buffers select and join bodies are appended into, so
// a reply does not regrow its body from nothing.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledReply bounds the buffers replyBufs keeps: one that grew past it
// for a large body, such as an unpaged export, is dropped rather than
// pinned in the pool.
const maxPooledReply = 1 << 20

// writeReply sends the 200 body appendBody appends into a pooled buffer.
// The buffer goes back to the pool only after w.Write has returned: an
// io.Writer must not keep the slice it is given.
func (s *Server) writeReply(w http.ResponseWriter, appendBody func([]byte) []byte) {
	buf := replyBufs.Get().(*[]byte)
	body := appendBody((*buf)[:0])
	s.writeBody(w, http.StatusOK, body)
	if cap(body) <= maxPooledReply {
		*buf = body[:0]
		replyBufs.Put(buf)
	}
}

// writeErr writes the uniform error payload, counting 5xx responses as
// server errors (client-caused 4xx are not server failures).
func (s *Server) writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	if code >= 500 {
		s.serverErrors.Add(1)
	}
	s.writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// writeDisconnect records a query aborted because the client went away and
// writes 499 (nginx's "client closed request"). The status reaches nobody
// on a real disconnect, but it keeps recorders and proxies honest, and the
// abort is counted as a disconnect — never as a server error.
func (s *Server) writeDisconnect(w http.ResponseWriter) {
	s.clientDisconnects.Add(1)
	s.writeJSON(w, 499, errorBody{Error: "client closed request"})
}

// sourceHealth is one source's admission state in the /healthz payload.
type sourceHealth struct {
	Source string `json:"source"`
	// BreakerState is "closed", "open" or "half-open"; empty when no
	// breaker is attached to the source.
	BreakerState string  `json:"breaker_state,omitempty"`
	Health       float64 `json:"health,omitempty"`
	Trips        uint64  `json:"trips,omitempty"`
	Rejections   uint64  `json:"rejections,omitempty"`
}

// healthResponse is the /healthz payload. Status is "ok" while every
// circuit admits queries and "degraded" when any circuit is open.
type healthResponse struct {
	Status  string         `json:"status"`
	Sources []sourceHealth `json:"sources,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := healthResponse{Status: "ok"}
	for _, name := range s.med.SourceNames() {
		sh := sourceHealth{Source: name}
		if snap, ok := s.med.BreakerSnapshot(name); ok {
			sh.BreakerState = snap.State.String()
			sh.Health = snap.Health
			sh.Trips = snap.Trips
			sh.Rejections = snap.Rejections
			if snap.State == breaker.StateOpen {
				resp.Status = "degraded"
			}
		}
		resp.Sources = append(resp.Sources, sh)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// sourceInfo describes one registered source.
type sourceInfo struct {
	Name             string   `json:"name"`
	Schema           []string `json:"schema"`
	Size             int      `json:"size"`
	HasKnowledge     bool     `json:"has_knowledge"`
	AllowNullBinding bool     `json:"allow_null_binding"`
	Queries          int      `json:"queries"`
	TuplesReturned   int      `json:"tuples_returned"`
}

func (s *Server) handleSources(w http.ResponseWriter, _ *http.Request) {
	var out []sourceInfo
	for _, name := range s.med.SourceNames() {
		src, _ := s.med.Source(name)
		_, hasKnow := s.med.Knowledge(name)
		schema := make([]string, src.Schema().Len())
		for i := 0; i < src.Schema().Len(); i++ {
			schema[i] = src.Schema().Attr(i).String()
		}
		st := src.Stats()
		out = append(out, sourceInfo{
			Name:             name,
			Schema:           schema,
			Size:             src.Size(),
			HasKnowledge:     hasKnow,
			AllowNullBinding: src.Capabilities().AllowNullBinding,
			Queries:          st.Queries,
			TuplesReturned:   st.TuplesReturned,
		})
	}
	s.writeJSON(w, http.StatusOK, out)
}

// afdInfo serializes one dependency.
type afdInfo struct {
	Determining []string `json:"determining"`
	Dependent   string   `json:"dependent"`
	Confidence  float64  `json:"confidence"`
	Support     int      `json:"support"`
}

type knowledgeInfo struct {
	Source     string    `json:"source"`
	SampleSize int       `json:"sample_size"`
	AFDs       []afdInfo `json:"afds"`
	Pruned     []afdInfo `json:"pruned_afds"`
	AKeys      []string  `json:"akeys"`
}

func (s *Server) handleKnowledge(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("source")
	if name == "" {
		s.writeErr(w, http.StatusBadRequest, "missing ?source= parameter")
		return
	}
	k, ok := s.med.Knowledge(name)
	if !ok {
		s.writeErr(w, http.StatusNotFound, "no knowledge for source %q", name)
		return
	}
	info := knowledgeInfo{Source: name, SampleSize: k.Sample.Len()}
	for _, a := range k.AFDs.AFDs {
		info.AFDs = append(info.AFDs, afdInfo{a.Determining, a.Dependent, a.Confidence, a.Support})
	}
	for _, a := range k.AFDs.Pruned {
		info.Pruned = append(info.Pruned, afdInfo{a.Determining, a.Dependent, a.Confidence, a.Support})
	}
	for _, ak := range k.AFDs.AKeys {
		info.AKeys = append(info.AKeys, ak.String())
	}
	s.writeJSON(w, http.StatusOK, info)
}

// latencyJSON summarizes a source's latency histogram.
type latencyJSON struct {
	Count     int   `json:"count"`
	SumMicros int64 `json:"sum_micros"`
	P50Micros int64 `json:"p50_micros"`
	P90Micros int64 `json:"p90_micros"`
	P99Micros int64 `json:"p99_micros"`
}

// breakerJSON is one source's circuit-breaker snapshot in /metrics.
type breakerJSON struct {
	State          string  `json:"state"`
	Health         float64 `json:"health"`
	WindowFailRate float64 `json:"window_fail_rate"`
	Trips          uint64  `json:"trips"`
	Rejections     uint64  `json:"rejections"`
	Probes         uint64  `json:"probes"`
	ProbeFailures  uint64  `json:"probe_failures"`
}

// sourceMetrics is one source's accounting in the /metrics payload.
type sourceMetrics struct {
	Source          string       `json:"source"`
	Queries         int          `json:"queries"`
	TuplesReturned  int          `json:"tuples_returned"`
	Rejected        int          `json:"rejected"`
	BreakerRejected int          `json:"breaker_rejected,omitempty"`
	Errors          int          `json:"errors"`
	Retries         int          `json:"retries"`
	Latency         latencyJSON  `json:"latency"`
	Breaker         *breakerJSON `json:"breaker,omitempty"`
}

// knowledgeMetrics is one source's entry in the knowledge section of
// /metrics: the counters of its mined knowledge's NBC prediction memo, a
// bounded LRU.
type knowledgeMetrics struct {
	Source         string      `json:"source"`
	PredictionMemo memoMetrics `json:"prediction_memo"`
}

// memoMetrics is one memo's counters.
type memoMetrics struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

func memoJSON(st qcache.Stats) memoMetrics {
	return memoMetrics{Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions, Entries: st.Entries}
}

// cacheMetrics is the mediator answer-cache section of the /metrics payload.
type cacheMetrics struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Evictions   uint64 `json:"evictions"`
	Coalesced   uint64 `json:"coalesced"`
	Entries     int    `json:"entries"`
	Expired     uint64 `json:"expired,omitempty"`
	StaleHits   uint64 `json:"stale_hits,omitempty"`
	StaleServed int64  `json:"stale_served,omitempty"`
}

// streamMetrics is the streaming section of the /metrics payload.
type streamMetrics struct {
	Requests   int64 `json:"requests"`
	Events     int64 `json:"events"`
	EarlyStops int64 `json:"early_stops"`
}

// plannerMetrics is the planner section of the /metrics payload: plan and
// reorder counts, and the fetches the plan order let the executor skip. It
// is core.PlannerStats in wire form.
type plannerMetrics struct {
	Enabled        bool  `json:"enabled"`
	Plans          int64 `json:"plans"`
	Reordered      int64 `json:"reordered"`
	SkippedFetches int64 `json:"skipped_fetches"`
}

// httpMetrics is the HTTP-layer section of the /metrics payload: the
// admission gate's counters, per-endpoint service-time histograms (both
// present only when WithAdmission configured them), and the error split —
// clients that hung up vs genuine server errors.
type httpMetrics struct {
	Admission         *admissionJSON             `json:"admission,omitempty"`
	Endpoints         map[string]latency.Summary `json:"endpoints,omitempty"`
	ClientDisconnects int64                      `json:"client_disconnects"`
	ServerErrors      int64                      `json:"server_errors"`
	// Panics counts handler panics caught by the recovery middleware
	// (each also counts as a server error).
	Panics int64 `json:"panics"`
	// Draining reports the /readyz state: true once BeginDrain was called.
	Draining bool `json:"draining,omitempty"`
}

// metricsResponse is the full /metrics payload.
type metricsResponse struct {
	Sources []sourceMetrics `json:"sources"`
	// Knowledge lists, per source with mined knowledge, its memo counters.
	Knowledge []knowledgeMetrics `json:"knowledge"`
	Cache     cacheMetrics       `json:"cache"`
	Streaming streamMetrics      `json:"streaming"`
	Planner   plannerMetrics     `json:"planner"`
	HTTP      httpMetrics        `json:"http"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	names := s.med.SourceNames()
	out := metricsResponse{
		Sources:   make([]sourceMetrics, 0, len(names)),
		Knowledge: make([]knowledgeMetrics, 0, len(names)),
	}
	for _, name := range names {
		src, _ := s.med.Source(name)
		mt := src.Metrics()
		sm := sourceMetrics{
			Source:          name,
			Queries:         mt.Queries,
			TuplesReturned:  mt.TuplesReturned,
			Rejected:        mt.Rejected,
			BreakerRejected: mt.BreakerRejected,
			Errors:          mt.Errors,
			Retries:         mt.Retries,
			Latency: latencyJSON{
				Count:     mt.Latency.Count,
				SumMicros: int64(mt.Latency.Sum / time.Microsecond),
				P50Micros: int64(mt.Latency.Percentile(0.50) / time.Microsecond),
				P90Micros: int64(mt.Latency.Percentile(0.90) / time.Microsecond),
				P99Micros: int64(mt.Latency.Percentile(0.99) / time.Microsecond),
			},
		}
		if snap, ok := s.med.BreakerSnapshot(name); ok {
			sm.Breaker = &breakerJSON{
				State:          snap.State.String(),
				Health:         snap.Health,
				WindowFailRate: snap.WindowFailRate,
				Trips:          snap.Trips,
				Rejections:     snap.Rejections,
				Probes:         snap.Probes,
				ProbeFailures:  snap.ProbeFailures,
			}
		}
		out.Sources = append(out.Sources, sm)
		if k, ok := s.med.Knowledge(name); ok && k != nil {
			out.Knowledge = append(out.Knowledge, knowledgeMetrics{
				Source:         name,
				PredictionMemo: memoJSON(k.PredictionMemoStats()),
			})
		}
	}
	cs := s.med.CacheStats()
	out.Cache = cacheMetrics{
		Hits:        cs.Hits,
		Misses:      cs.Misses,
		Evictions:   cs.Evictions,
		Coalesced:   cs.Coalesced,
		Entries:     cs.Entries,
		Expired:     cs.Expired,
		StaleHits:   cs.StaleHits,
		StaleServed: s.med.StaleServed(),
	}
	out.Streaming = streamMetrics{
		Requests:   s.streamRequests.Load(),
		Events:     s.streamEvents.Load(),
		EarlyStops: s.streamStops.Load(),
	}
	out.Planner = plannerMetrics(s.med.PlannerStats())
	out.HTTP = httpMetrics{
		ClientDisconnects: s.clientDisconnects.Load(),
		ServerErrors:      s.serverErrors.Load(),
		Panics:            s.panics.Load(),
		Draining:          s.draining.Load(),
	}
	if s.adm != nil {
		out.HTTP.Admission = s.adm.snapshot()
		eps := make(map[string]latency.Summary, len(s.endpoints))
		for name, h := range s.endpoints {
			if h.Count() > 0 {
				eps[name] = h.Snapshot()
			}
		}
		out.HTTP.Endpoints = eps
	}
	s.writeJSON(w, http.StatusOK, out)
}

// queryRequest is the /query input.
type queryRequest struct {
	SQL string `json:"sql"`
	// Alpha and K optionally override the mediator defaults for this
	// query.
	Alpha *float64 `json:"alpha,omitempty"`
	K     *int     `json:"k,omitempty"`
	// NoCache bypasses the mediator answer cache for this request: the
	// query runs the full pipeline and the result is not stored.
	NoCache bool `json:"no_cache,omitempty"`
	// TopN arms confidence-bound early termination on streaming requests:
	// once TopN possible answers are out, remaining rewrites are skipped or
	// cancelled. Ignored (with no effect) on non-streaming requests.
	TopN int `json:"top_n,omitempty"`
}

// aggResponse is the /query output for aggregates. Selections are written by
// the answer encoder (wire.go).
type aggResponse struct {
	Query          string    `json:"query"`
	Source         string    `json:"source"`
	Certain        jsonFloat `json:"certain"`
	Possible       jsonFloat `json:"possible"`
	Total          jsonFloat `json:"total"`
	CertainRows    int       `json:"certain_rows"`
	PossibleRows   int       `json:"possible_rows"`
	RewritesFolded int       `json:"rewrites_folded"`
	RewritesFailed int       `json:"rewrites_failed,omitempty"`
	Degraded       bool      `json:"degraded,omitempty"`
}

// jsonFloat is a float64 that marshals as null when it is NaN or infinite,
// as an aggregate over no rows (AVG) or over a non-numeric attribute
// (MIN/MAX) is.
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) { return appendFloat(nil, float64(f)), nil }

// callConfig is the mediator's configuration with a request's optional α
// and K overrides applied. It is a copy: the shared configuration is never
// mutated, so concurrent requests cannot bleed into each other.
func (s *Server) callConfig(alpha *float64, k *int) core.Config {
	cfg := s.med.Config()
	if alpha != nil {
		cfg.Alpha = *alpha
	}
	if k != nil {
		cfg.K = *k
	}
	return cfg
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.SQL == "" {
		s.writeErr(w, http.StatusBadRequest, "missing sql")
		return
	}
	st, err := sqlish.Parse(req.SQL)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	srcName := st.Query.Relation
	src, ok := s.med.Source(srcName)
	if !ok {
		s.writeErr(w, http.StatusNotFound, "unknown source %q", srcName)
		return
	}
	if err := st.CoerceTypes(src.Schema()); err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg := s.callConfig(req.Alpha, req.K)
	if req.NoCache {
		cfg.NoCache = true
	}

	if streamRequested(r) {
		s.handleQueryStream(w, r, cfg, req, st, srcName, src.Schema())
		return
	}

	if st.Query.Agg != nil {
		ans, err := s.med.QueryAggregateWithCtx(r.Context(), cfg, srcName, st.Query, core.AggOptions{
			IncludePossible: true,
			PredictMissing:  true,
			Rule:            core.RuleArgmax,
		})
		if err != nil {
			if r.Context().Err() != nil {
				s.writeDisconnect(w)
				return
			}
			s.writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
		s.writeJSON(w, http.StatusOK, aggResponse{
			Query:          st.Query.String(),
			Source:         srcName,
			Certain:        jsonFloat(ans.Certain),
			Possible:       jsonFloat(ans.Possible),
			Total:          jsonFloat(ans.Total),
			CertainRows:    ans.CertainRows,
			PossibleRows:   ans.PossibleRows,
			RewritesFolded: len(ans.Included),
			RewritesFailed: len(ans.Failed),
			Degraded:       ans.Degraded,
		})
		return
	}

	enc, err := newRowEncoder(src.Schema(), st.Projection)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	rs, err := s.med.QuerySelectWithCtx(r.Context(), cfg, srcName, st.Query)
	if err != nil {
		if r.Context().Err() != nil {
			// The client hung up mid-query: the pipeline aborted on its
			// context, which is neither a server error nor answerable.
			s.writeDisconnect(w)
			return
		}
		s.writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// ORDER BY applies within the certain and possible sections (possible
	// answers keep their confidence ranking as the primary order when no
	// ORDER BY is given); LIMIT caps each section. A cache hit shares its
	// sections with the cache: SortBy sorts copies, and the cap reslices.
	if len(st.Order) > 0 {
		cmp, err := st.Comparator(src.Schema())
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		rs.SortBy(cmp)
	}
	if st.Limit > 0 {
		rs.Certain = capAnswers(rs.Certain, st.Limit)
		rs.Possible = capAnswers(rs.Possible, st.Limit)
		rs.Unranked = capAnswers(rs.Unranked, st.Limit)
	}
	var text [256]byte
	query := st.Query.AppendString(text[:0])
	s.writeReply(w, func(b []byte) []byte { return enc.appendSelect(b, query, srcName, rs) })
}

// handleQueryStream serves POST /query?stream=1: the selection pipeline's
// events written as NDJSON, one line per event. Lines are flushed whenever
// the pipeline has no event ready: a burst of answers leaves in
// buffer-sized writes, and no line waits behind rewrite generation or a
// source round trip. Headers go out before the first event, so mid-stream
// failures are reported as an error event rather than a status change.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request, cfg core.Config, req queryRequest, st *sqlish.Statement, srcName string, schema *relation.Schema) {
	// A stream emits answers in rank order as they arrive; ORDER BY and
	// LIMIT would require the full set first, which is the batch endpoint's
	// job. Aggregates have a single scalar result — nothing to stream.
	if st.Query.Agg != nil {
		s.writeErr(w, http.StatusBadRequest, "aggregate queries cannot be streamed")
		return
	}
	if len(st.Order) > 0 || st.Limit > 0 {
		s.writeErr(w, http.StatusBadRequest, "ORDER BY / LIMIT are not supported on streams: answers arrive in confidence rank order")
		return
	}
	if req.TopN > 0 {
		cfg.TopN = req.TopN
	}
	enc, err := newRowEncoder(schema, st.Projection)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	events, err := s.med.SelectStreamWith(r.Context(), cfg, srcName, st.Query)
	if err != nil {
		if r.Context().Err() != nil {
			s.writeDisconnect(w)
			return
		}
		s.writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.streamRequests.Add(1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	unflushed := false
	flush := func() {
		if unflushed && flusher != nil {
			flusher.Flush()
		}
		unflushed = false
	}
	var line []byte
	live := true
	for ev, open := nextEvent(events, flush); open; ev, open = nextEvent(events, flush) {
		if !live {
			continue // drain after a write failure
		}
		switch ev.Kind {
		case core.StreamEventAnswer:
			line = enc.appendAnswerLine(line[:0], ev.Answer, ev.Unranked, ev.Stale)
		case core.StreamEventRewrite:
			line = appendRewriteLine(line[:0], ev.Rewrite)
		case core.StreamEventSummary:
			if ev.Summary.EarlyStopped {
				s.streamStops.Add(1)
			}
			line = appendSummaryLine(line[:0], ev.Summary)
		default:
			continue
		}
		if _, err := w.Write(line); err != nil {
			// Client gone: r.Context() is cancelled by the server when the
			// connection drops, which aborts the pipeline; just stop writing
			// and drain the channel so the producer can close it. Counted
			// as a disconnect, not a server error.
			s.clientDisconnects.Add(1)
			live = false
			continue
		}
		s.streamEvents.Add(1)
		unflushed = true
	}
	flush()
}

// nextEvent receives the next stream event, calling idle (the flush) first
// if none is ready. Before concluding that, it yields once: the producer the
// previous receive woke is usually queued behind this goroutine and has its
// next event a moment later. Without the yield a burst of answers was
// flushed every other line.
func nextEvent(events <-chan core.StreamEvent, idle func()) (core.StreamEvent, bool) {
	select {
	case ev, open := <-events:
		return ev, open
	default:
	}
	runtime.Gosched()
	select {
	case ev, open := <-events:
		return ev, open
	default:
	}
	idle()
	ev, open := <-events
	return ev, open
}

// capAnswers truncates a section to the LIMIT. The result's capacity ends
// at the LIMIT too: a cached section goes on past it, and an append must
// copy rather than write there.
func capAnswers(answers []core.Answer, limit int) []core.Answer {
	if len(answers) > limit {
		return answers[:limit:limit]
	}
	return answers
}

// joinRequest is the POST /join input: one SQL selection per side (each
// FROM clause names its source) and the equi-join attribute pair.
type joinRequest struct {
	LeftSQL  string `json:"left_sql"`
	RightSQL string `json:"right_sql"`
	// On is [left_attr, right_attr].
	On [2]string `json:"on"`
	// Alpha and K optionally override the mediator defaults for pair
	// ordering and the query-pair budget.
	Alpha *float64 `json:"alpha,omitempty"`
	K     *int     `json:"k,omitempty"`
}

// parseJoinSide parses one side's SQL into a plain selection, rejecting
// clauses a join side cannot carry and a join attribute the side's source
// lacks, and compiles the encoder for the side's tuples.
func (s *Server) parseJoinSide(w http.ResponseWriter, side, sql, on string) (*sqlish.Statement, *rowEncoder, bool) {
	if sql == "" {
		s.writeErr(w, http.StatusBadRequest, "missing %s_sql", side)
		return nil, nil, false
	}
	st, err := sqlish.Parse(sql)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%s_sql: %v", side, err)
		return nil, nil, false
	}
	if st.Query.Agg != nil || len(st.Order) > 0 || st.Limit > 0 || len(st.Projection) > 0 {
		s.writeErr(w, http.StatusBadRequest, "%s_sql: join sides are plain selections (no aggregates, ORDER BY, LIMIT or projection)", side)
		return nil, nil, false
	}
	src, ok := s.med.Source(st.Query.Relation)
	if !ok {
		s.writeErr(w, http.StatusNotFound, "unknown source %q", st.Query.Relation)
		return nil, nil, false
	}
	if err := st.CoerceTypes(src.Schema()); err != nil {
		s.writeErr(w, http.StatusBadRequest, "%s_sql: %v", side, err)
		return nil, nil, false
	}
	if _, ok := src.Schema().Index(on); !ok {
		s.writeErr(w, http.StatusBadRequest, "on: unknown %s attribute %q (schema %s)", side, on, src.Schema())
		return nil, nil, false
	}
	enc, err := newRowEncoder(src.Schema(), nil)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%s_sql: %v", side, err)
		return nil, nil, false
	}
	return st, enc, true
}

// handleJoin serves POST /join: the paper's Section 4.5 two-way join as
// ranked query pairs, certain pairs first.
func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.On[0] == "" || req.On[1] == "" {
		s.writeErr(w, http.StatusBadRequest, `missing "on": [left_attr, right_attr]`)
		return
	}
	left, leftEnc, ok := s.parseJoinSide(w, "left", req.LeftSQL, req.On[0])
	if !ok {
		return
	}
	right, rightEnc, ok := s.parseJoinSide(w, "right", req.RightSQL, req.On[1])
	if !ok {
		return
	}
	cfg := s.callConfig(req.Alpha, req.K)
	spec := core.JoinSpec{
		LeftSource:    left.Query.Relation,
		RightSource:   right.Query.Relation,
		LeftQuery:     left.Query,
		RightQuery:    right.Query,
		LeftJoinAttr:  req.On[0],
		RightJoinAttr: req.On[1],
		Alpha:         cfg.Alpha,
		K:             cfg.K,
	}
	res, err := s.med.QueryJoinCtx(r.Context(), spec)
	if err != nil {
		if r.Context().Err() != nil {
			s.writeDisconnect(w)
			return
		}
		s.writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.writeReply(w, func(b []byte) []byte {
		return appendJoin(b, leftEnc, rightEnc, spec.LeftSource, spec.RightSource, res)
	})
}
