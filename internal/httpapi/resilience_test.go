package httpapi

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"qpiad/internal/afd"
	"qpiad/internal/core"
	"qpiad/internal/datagen"
	"qpiad/internal/faults"
	"qpiad/internal/nbc"
	"qpiad/internal/source"
)

// faultyServer is testServer with the source exposed and an optional fault
// injector attached.
func faultyServer(t *testing.T, p faults.Profile, retry core.RetryPolicy) (*httptest.Server, *source.Source) {
	t.Helper()
	gd := datagen.Cars(4000, 1)
	ed, _ := datagen.MakeIncomplete(gd, 0.10, 2)
	src := source.New("cars", ed, source.Capabilities{})
	if p.Enabled() {
		src.SetFaults(faults.New(p))
	}
	smpl := ed.Sample(500, rand.New(rand.NewSource(3)))
	k, err := core.MineKnowledge("cars", smpl,
		float64(ed.Len())/float64(smpl.Len()), smpl.IncompleteFraction(),
		core.KnowledgeConfig{AFD: afd.Config{MinSupport: 5}, Predictor: nbc.PredictorConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	med := core.New(core.Config{Alpha: 0, K: 10, Retry: retry})
	med.Register(src, k)
	srv := httptest.NewServer(New(med))
	t.Cleanup(srv.Close)
	return srv, src
}

func getMetrics(t *testing.T, srv *httptest.Server) metricsResponse {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	var out metricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsEndpoint runs a scripted workload against a flaky source and
// requires the /metrics payload to match the simulator's internal
// accounting exactly — counters and latency percentiles alike.
func TestMetricsEndpoint(t *testing.T) {
	srv, src := faultyServer(t,
		faults.Profile{Seed: 9, TransientRate: 0.3},
		core.RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond})

	// Scripted workload: selections and an aggregate, some retried under
	// the injected fault rate.
	for _, body := range []string{
		`{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'"}`,
		`{"sql": "SELECT * FROM cars WHERE body_style = 'Sedan'", "k": 3}`,
		`{"sql": "SELECT COUNT(*) FROM cars WHERE body_style = 'Convt'"}`,
	} {
		resp, out := postQuery(t, srv, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workload %s: status %d: %s", body, resp.StatusCode, out)
		}
	}

	got := getMetrics(t, srv)
	if len(got.Sources) != 1 || got.Sources[0].Source != "cars" {
		t.Fatalf("metrics = %+v", got)
	}
	mt := src.Metrics()
	want := sourceMetrics{
		Source:         "cars",
		Queries:        mt.Queries,
		TuplesReturned: mt.TuplesReturned,
		Rejected:       mt.Rejected,
		Errors:         mt.Errors,
		Retries:        mt.Retries,
		Latency: latencyJSON{
			Count:     mt.Latency.Count,
			SumMicros: int64(mt.Latency.Sum / time.Microsecond),
			P50Micros: int64(mt.Latency.Percentile(0.50) / time.Microsecond),
			P90Micros: int64(mt.Latency.Percentile(0.90) / time.Microsecond),
			P99Micros: int64(mt.Latency.Percentile(0.99) / time.Microsecond),
		},
	}
	if got.Sources[0] != want {
		t.Errorf("/metrics = %+v, want internal accounting %+v", got.Sources[0], want)
	}
	// The cache section must account the workload too: three distinct
	// uncached queries mean at least one recorded miss and no hits yet.
	if got.Cache.Misses == 0 {
		t.Errorf("cache metrics recorded no misses after a fresh workload: %+v", got.Cache)
	}
	// The workload must have exercised the resilience path for the match to
	// mean anything.
	if mt.Queries == 0 || mt.Errors == 0 || mt.Retries == 0 {
		t.Errorf("scripted workload produced no retries/errors: %+v", mt.Stats)
	}
	if mt.Latency.Count != mt.Queries {
		t.Errorf("latency observations (%d) should cover every accepted attempt (%d)",
			mt.Latency.Count, mt.Queries)
	}
}

// TestMetricsKnowledgeSection requires /metrics to report each source's
// prediction memo exactly as the mined knowledge counts it, and a
// repeated uncached query to be answered from the memo.
func TestMetricsKnowledgeSection(t *testing.T) {
	med := testMediator(t, core.Config{Alpha: 0, K: 10})
	srv := httptest.NewServer(New(med))
	t.Cleanup(srv.Close)
	k, _ := med.Knowledge("cars")
	want := func() knowledgeMetrics {
		return knowledgeMetrics{
			Source:         "cars",
			PredictionMemo: memoJSON(k.PredictionMemoStats()),
		}
	}
	check := func(stage string) knowledgeMetrics {
		t.Helper()
		got := getMetrics(t, srv)
		if len(got.Knowledge) != 1 || got.Knowledge[0] != want() {
			t.Fatalf("%s: /metrics knowledge = %+v, want %+v", stage, got.Knowledge, want())
		}
		return got.Knowledge[0]
	}
	if cold := check("before any query"); cold != (knowledgeMetrics{Source: "cars"}) {
		t.Fatalf("memos used before any query: %+v", cold)
	}
	body := `{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'", "no_cache": true}`
	if resp, out := postQuery(t, srv, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	first := check("after one query").PredictionMemo
	if first.Misses == 0 || first.Entries != int(first.Misses-first.Evictions) {
		t.Errorf("prediction memo after one query: %+v, want misses that all became entries", first)
	}
	if resp, out := postQuery(t, srv, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	second := check("after the repeat").PredictionMemo
	if second.Misses != first.Misses || second.Hits <= first.Hits {
		t.Errorf("prediction memo: repeat query went %+v -> %+v, want only hits", first, second)
	}
}

// TestQueryDegradedAnnotation verifies a failing rewrite surfaces in the
// /query response: degraded flag set, failure annotated in rewrites_issued.
func TestQueryDegradedAnnotation(t *testing.T) {
	// Fault seed 5 is the hunted degradation scenario for the Convt query
	// (see core's resilience tests); MaxAttempts 2 leaves one rewrite failed.
	srv, _ := faultyServer(t,
		faults.Profile{Seed: 5, TransientRate: 0.3},
		core.RetryPolicy{MaxAttempts: 2, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond})
	resp, body := postQuery(t, srv, `{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Certain) == 0 || len(qr.Possible) == 0 {
		t.Fatal("degraded query should still return certain and recoverable possible answers")
	}
	// Note: this pins the fault-seed scenario; if the rewrite layer changes,
	// re-hunt the seed in internal/core's TestGracefulDegradation first.
	if !qr.Degraded {
		t.Error("degraded flag missing")
	}
	var annotated int
	for _, rw := range qr.Rewrites {
		if strings.Contains(rw, "failed after") {
			annotated++
		}
	}
	if annotated == 0 {
		t.Errorf("no failure annotation in rewrites_issued: %v", qr.Rewrites)
	}
}

// TestConcurrentOverrides proves /query handles concurrent requests with
// different per-request α/K overrides without serialization or bleed: every
// concurrent response is byte-identical to its serial baseline.
func TestConcurrentOverrides(t *testing.T) {
	srv := testServer(t)
	bodies := []string{
		`{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'", "alpha": 0, "k": 2}`,
		`{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'", "alpha": 2, "k": 10}`,
	}
	baselines := make([]string, len(bodies))
	for i, b := range bodies {
		resp, out := postQuery(t, srv, b)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("baseline %d: status %d: %s", i, resp.StatusCode, out)
		}
		baselines[i] = string(out)
	}
	if baselines[0] == baselines[1] {
		t.Fatal("the two override sets must produce different responses for the test to mean anything")
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		i := w % len(bodies)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				resp, out := postQuery(t, srv, bodies[i])
				if resp.StatusCode != http.StatusOK {
					errs <- string(out)
					return
				}
				if string(out) != baselines[i] {
					errs <- "concurrent response differs from serial baseline — config bleed"
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
