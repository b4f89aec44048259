package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qpiad/internal/core"
)

// panicServer builds an admission-gated server with an extra route that
// panics inside the full middleware stack (admission gate + endpoint
// instrumentation), mirroring what a bug in a real handler would do.
func panicServer(t *testing.T, maxInflight int) *Server {
	t.Helper()
	s := admissionWorld(t, AdmissionConfig{
		MaxInFlight:  maxInflight,
		MaxQueue:     2 * maxInflight,
		QueueTimeout: 100 * time.Millisecond,
	})
	s.mux.HandleFunc("POST /panic", s.admitted(queryEndpoint, func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	s.mux.HandleFunc("POST /panic-midstream", s.admitted(queryEndpoint, func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		//lint:allow errdrop test writer cannot fail
		w.Write([]byte("partial\n"))
		panic("mid-stream boom")
	}))
	return s
}

// TestPanicRecoveryStructured500 pins the recovery middleware's contract: a
// handler panic answers a structured 500, is counted under panics and
// server_errors, and never leaks an admission slot — the server keeps
// serving at full capacity afterwards.
func TestPanicRecoveryStructured500(t *testing.T) {
	s := panicServer(t, 2)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// More panics than in-flight slots: if a panic leaked its slot, the
	// third request would queue-timeout into a 429 instead of panicking.
	const n = 6
	for i := 0; i < n; i++ {
		resp, err := http.Post(ts.URL+"/panic", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500", i, resp.StatusCode)
		}
		var body errorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("request %d: 500 body is not structured JSON: %v", i, err)
		}
		//lint:allow errdrop test response body
		resp.Body.Close()
		if !strings.Contains(body.Error, "panic") {
			t.Errorf("500 body should name the panic, got %q", body.Error)
		}
	}

	m := fetchMetrics(t, ts.URL)
	if m.HTTP.Panics != n {
		t.Errorf("panics counter = %d, want %d", m.HTTP.Panics, n)
	}
	if m.HTTP.ServerErrors != n {
		t.Errorf("server_errors = %d, want %d", m.HTTP.ServerErrors, n)
	}
	if m.HTTP.Admission.InFlight != 0 || m.HTTP.Admission.Queued != 0 {
		t.Errorf("gauges leaked: inflight=%d queued=%d", m.HTTP.Admission.InFlight, m.HTTP.Admission.Queued)
	}
	if m.HTTP.Admission.Admitted != n {
		t.Errorf("admitted = %d, want %d", m.HTTP.Admission.Admitted, n)
	}
	// Conservation: every admitted request completed into an endpoint
	// histogram even though it panicked.
	var completed int64
	for _, ep := range []string{"query", "query_stream", "join"} {
		completed += m.HTTP.Endpoints[ep].Count
	}
	if completed != m.HTTP.Admission.Admitted {
		t.Errorf("admitted %d != endpoint completions %d", m.HTTP.Admission.Admitted, completed)
	}

	// A normal query still works: no capacity was lost.
	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'"}`))
	if err != nil {
		t.Fatal(err)
	}
	//lint:allow errdrop test response body
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic query: status %d", resp.StatusCode)
	}
}

// sampleLessWorld is the admission-gated test server whose cars knowledge
// lost its sample, so rewrite selectivity estimation dereferences nil and
// every query that gets as far as its rewrites panics.
func sampleLessWorld(t *testing.T, copts ...func(*core.Config)) *httptest.Server {
	t.Helper()
	s := admissionWorld(t, AdmissionConfig{MaxInFlight: 2}, copts...)
	k, ok := s.med.Knowledge("cars")
	if !ok {
		t.Fatal("no knowledge for cars")
	}
	k.Sample = nil
	return httptest.NewServer(s)
}

// TestQueryPanicRecorded panics inside the real batch POST /query handler
// and checks that every panicking request answers 500 and still lands in
// the query histogram, so admitted == Σ endpoint completions holds. With
// the answer cache on, the panicking computation must release its
// singleflight slot: each identical request computes (and panics) afresh
// rather than waiting on the first one forever, which the client timeout
// would catch.
func TestQueryPanicRecorded(t *testing.T) {
	for _, cacheOn := range []bool{false, true} {
		ts := sampleLessWorld(t, func(c *core.Config) {
			if !cacheOn {
				c.CacheSize = -1
			}
		})
		client := &http.Client{Timeout: 10 * time.Second}
		const n = 3
		for i := 0; i < n; i++ {
			resp, err := client.Post(ts.URL+"/query", "application/json",
				strings.NewReader(`{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'"}`))
			if err != nil {
				t.Fatalf("cache=%v request %d: %v", cacheOn, i, err)
			}
			//lint:allow errdrop test response body
			resp.Body.Close()
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("cache=%v request %d: status %d, want 500", cacheOn, i, resp.StatusCode)
			}
		}
		m := fetchMetrics(t, ts.URL)
		if m.HTTP.Panics != n || m.HTTP.Admission.Admitted != n {
			t.Fatalf("cache=%v: panics=%d admitted=%d, want %d each", cacheOn, m.HTTP.Panics, m.HTTP.Admission.Admitted, n)
		}
		if got := m.HTTP.Endpoints["query"].Count; got != n {
			t.Errorf("cache=%v: query completions = %d, want %d: a panicking POST /query must still be recorded", cacheOn, got, n)
		}
		ts.Close()
	}
}

// TestQueryStreamPanicRecorded is the same panic over ?stream=1, where the
// pipeline runs on the stream's own goroutine: the handler re-raises it on
// the request's goroutine, so the recovery middleware counts it instead of
// the process dying. The 200 header is already out, so the body ends
// without a summary line, and the server goes on serving.
func TestQueryStreamPanicRecorded(t *testing.T) {
	ts := sampleLessWorld(t)
	defer ts.Close()
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(ts.URL+"/query?stream=1", "application/json",
		strings.NewReader(`{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	//lint:allow errdrop test response body
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d, want the 200 sent before the pipeline panicked", resp.StatusCode)
	}
	if strings.Contains(string(body), `"event":"summary"`) {
		t.Errorf("a panicked stream must end without a summary line:\n%s", body)
	}
	if m := fetchMetrics(t, ts.URL); m.HTTP.Panics != 1 {
		t.Errorf("panics = %d, want 1", m.HTTP.Panics)
	}
	health, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	//lint:allow errdrop test response body
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Errorf("healthz after the panic: status %d, want 200", health.StatusCode)
	}
}

// TestPanicMidStream pins the degenerate case: once the response has
// started the 500 cannot be written, but the panic is still counted and
// the slot still freed.
func TestPanicMidStream(t *testing.T) {
	s := panicServer(t, 1)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/panic-midstream", "application/json", strings.NewReader("{}"))
	if err == nil {
		// The status went out before the panic; body may be cut short.
		if resp.StatusCode != http.StatusOK {
			t.Errorf("mid-stream panic: status %d, want the already-sent 200", resp.StatusCode)
		}
		//lint:allow errdrop test response body
		resp.Body.Close()
	}
	m := fetchMetrics(t, ts.URL)
	if m.HTTP.Panics != 1 {
		t.Errorf("panics = %d, want 1", m.HTTP.Panics)
	}
	if m.HTTP.Admission.InFlight != 0 {
		t.Errorf("inflight leaked: %d", m.HTTP.Admission.InFlight)
	}
}

// TestReadyzDrainSplit pins the readiness/liveness split: /readyz fails
// the moment BeginDrain is called while /healthz stays live, and /metrics
// reports the draining flag.
func TestReadyzDrainSplit(t *testing.T) {
	s := admissionWorld(t, AdmissionConfig{MaxInFlight: 8})
	ts := httptest.NewServer(s)
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		//lint:allow errdrop test response body
		defer resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain: %d, want 200", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz before drain: %d, want 200", code)
	}

	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during drain: %d, want 200 (liveness stays up)", code)
	}
	// Queries are still served through the drain window (shutdown, not
	// readiness, is what stops them).
	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'"}`))
	if err != nil {
		t.Fatal(err)
	}
	//lint:allow errdrop test response body
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query during drain: %d, want 200", resp.StatusCode)
	}
}

// fetchMetrics decodes GET /metrics.
func fetchMetrics(t *testing.T, base string) metricsResponse {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	//lint:allow errdrop test response body
	defer resp.Body.Close()
	var m metricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}
