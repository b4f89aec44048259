package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qpiad/internal/afd"
	"qpiad/internal/core"
	"qpiad/internal/datagen"
	"qpiad/internal/nbc"
	"qpiad/internal/planner"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(testMediator(t, core.Config{Alpha: 0, K: 10})))
	t.Cleanup(srv.Close)
	return srv
}

// testMediator builds the 4000-car test world under cfg.
func testMediator(t *testing.T, cfg core.Config) *core.Mediator {
	t.Helper()
	gd := datagen.Cars(4000, 1)
	ed, _ := datagen.MakeIncomplete(gd, 0.10, 2)
	src := source.New("cars", ed, source.Capabilities{})
	smpl := ed.Sample(500, rand.New(rand.NewSource(3)))
	k, err := core.MineKnowledge("cars", smpl,
		float64(ed.Len())/float64(smpl.Len()), smpl.IncompleteFraction(),
		core.KnowledgeConfig{AFD: afd.Config{MinSupport: 5}, Predictor: nbc.PredictorConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	med := core.New(cfg)
	med.Register(src, k)
	return med
}

func postQuery(t *testing.T, srv *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, buf.Bytes()
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestSources(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/sources")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []sourceInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "cars" || !infos[0].HasKnowledge {
		t.Errorf("sources = %+v", infos)
	}
	if infos[0].Size == 0 || len(infos[0].Schema) != 8 {
		t.Errorf("source info = %+v", infos[0])
	}
}

func TestKnowledge(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/knowledge?source=cars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info knowledgeInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if len(info.AFDs) == 0 {
		t.Error("no AFDs reported")
	}
	if len(info.Pruned) == 0 {
		t.Error("id-based AFDs should be reported as pruned")
	}
	// Errors.
	if resp, _ := http.Get(srv.URL + "/knowledge"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing source param: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(srv.URL + "/knowledge?source=nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown source: %d", resp.StatusCode)
	}
}

func TestQuerySelection(t *testing.T) {
	srv := testServer(t)
	resp, body := postQuery(t, srv, `{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Certain) == 0 {
		t.Error("no certain answers")
	}
	if len(qr.Possible) == 0 {
		t.Error("no possible answers")
	}
	for _, a := range qr.Possible {
		if a.Values["body_style"] != nil {
			t.Fatalf("possible answer not null on constrained attr: %v", a.Values)
		}
		if a.Confidence <= 0 || a.Confidence > 1 {
			t.Fatalf("confidence %v", a.Confidence)
		}
		if a.Explanation == "" {
			t.Fatal("missing explanation")
		}
	}
	if len(qr.Rewrites) == 0 || qr.Generated == 0 {
		t.Error("rewrite accounting missing")
	}
}

func TestQueryProjection(t *testing.T) {
	srv := testServer(t)
	resp, body := postQuery(t, srv, `{"sql": "SELECT make, model FROM cars WHERE body_style = 'Convt'"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Certain) == 0 {
		t.Fatal("no answers")
	}
	if len(qr.Certain[0].Values) != 2 {
		t.Errorf("projected values = %v", qr.Certain[0].Values)
	}
}

func TestQueryAggregate(t *testing.T) {
	srv := testServer(t)
	resp, body := postQuery(t, srv, `{"sql": "SELECT COUNT(*) FROM cars WHERE body_style = 'Convt'", "k": -1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ar aggResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Total < ar.Certain || ar.Certain == 0 {
		t.Errorf("aggregate = %+v", ar)
	}
}

func TestQueryWithOverrides(t *testing.T) {
	srv := testServer(t)
	resp, body := postQuery(t, srv, `{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'", "alpha": 1, "k": 2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rewrites) > 2 {
		t.Errorf("K override ignored: %d rewrites", len(qr.Rewrites))
	}
	// The override must not leak into later requests.
	_, body = postQuery(t, srv, `{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'"}`)
	var qr2 queryResponse
	if err := json.Unmarshal(body, &qr2); err != nil {
		t.Fatal(err)
	}
	if len(qr2.Rewrites) <= 2 {
		t.Errorf("config override leaked: %d rewrites", len(qr2.Rewrites))
	}
}

func TestQueryOrderByAndLimit(t *testing.T) {
	srv := testServer(t)
	resp, body := postQuery(t, srv,
		`{"sql": "SELECT * FROM cars WHERE body_style = 'Convt' ORDER BY price DESC LIMIT 3"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Certain) != 3 {
		t.Fatalf("LIMIT ignored: %d certain answers", len(qr.Certain))
	}
	prev := 1e18
	for _, a := range qr.Certain {
		p := a.Values["price"].(float64) // JSON numbers decode as float64
		if p > prev {
			t.Fatalf("not sorted by price DESC: %v after %v", p, prev)
		}
		prev = p
	}
	if len(qr.Possible) > 3 {
		t.Errorf("LIMIT must also cap possible answers: %d", len(qr.Possible))
	}
}

func TestQueryErrors(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		body string
		code int
		want string
	}{
		{`not json`, http.StatusBadRequest, "bad request"},
		{`{}`, http.StatusBadRequest, "missing sql"},
		{`{"sql": "DROP TABLE cars"}`, http.StatusBadRequest, "sqlish"},
		{`{"sql": "SELECT * FROM nope"}`, http.StatusNotFound, "unknown source"},
		{`{"sql": "SELECT * FROM cars WHERE nope = 1"}`, http.StatusBadRequest, "unknown attribute"},
	}
	for _, c := range cases {
		resp, body := postQuery(t, srv, c.body)
		if resp.StatusCode != c.code {
			t.Errorf("%q: status %d want %d (%s)", c.body, resp.StatusCode, c.code, body)
		}
		if !strings.Contains(string(body), c.want) {
			t.Errorf("%q: body %q should contain %q", c.body, body, c.want)
		}
	}
}

// TestQueryExplainPlanner checks WithExplain attaches the planner section to
// /query responses and that it reflects the mediator's planner config.
func TestQueryExplainPlanner(t *testing.T) {
	med := testMediator(t, core.Config{Alpha: 0, K: 10, Planner: &planner.Config{Scheduler: planner.NewScheduler(2)}})
	srv := httptest.NewServer(New(med, WithExplain()))
	t.Cleanup(srv.Close)

	resp, body := postQuery(t, srv, `{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Planner == nil {
		t.Fatal("explain server should attach a planner section")
	}
	if !qr.Planner.Enabled {
		t.Error("planner section should report enabled")
	}
	if qr.Planner.Scheduler == nil || qr.Planner.Scheduler.Admitted == 0 {
		t.Errorf("scheduler should have admitted rewrite fetches: %+v", qr.Planner.Scheduler)
	}

	// Without the option the section stays absent.
	plain := testServer(t)
	_, body = postQuery(t, plain, `{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'"}`)
	if strings.Contains(string(body), `"planner"`) {
		t.Error("plain server should not attach a planner section")
	}
}

// TestQueryAggregateNaNIsNull pins aggregates whose value is NaN — AVG over
// no rows, MIN over a non-numeric attribute — answering 200 with null
// instead of an empty body.
func TestQueryAggregateNaNIsNull(t *testing.T) {
	srv := testServer(t)
	for _, sql := range []string{
		"SELECT AVG(price) FROM cars WHERE model = 'NoSuchModel'",
		"SELECT MIN(make) FROM cars WHERE body_style = 'Convt'",
	} {
		resp, body := postQuery(t, srv, `{"sql": "`+sql+`"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", sql, resp.StatusCode, body)
		}
		var raw map[string]any
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatalf("%s: body %q: %v", sql, body, err)
		}
		if v, ok := raw["total"]; !ok || v != nil {
			t.Errorf("%s: total = %v (present %v), want null", sql, v, ok)
		}
		if v, ok := raw["certain"]; !ok || v != nil {
			t.Errorf("%s: certain = %v (present %v), want null", sql, v, ok)
		}
	}
}

// nanServer serves a CSV-loaded source whose float column holds a NaN in a
// Convt row.
func nanServer(t *testing.T) *httptest.Server {
	t.Helper()
	const data = "id:int,make,body_style,rating:float\n" +
		"1,Honda,Convt,NaN\n2,Honda,Convt,4.5\n3,Ford,Sedan,3\n4,Ford,Convt,+Inf\n" +
		"5,BMW,\\N,2.5\n6,BMW,Sedan,1\n7,Honda,\\N,4\n8,Ford,Sedan,\\N\n"
	rel, err := relation.ReadCSV("db", strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	k, err := core.MineKnowledge("db", rel, 1, rel.IncompleteFraction(),
		core.KnowledgeConfig{AFD: afd.Config{MinSupport: 1}})
	if err != nil {
		t.Fatal(err)
	}
	med := core.New(core.Config{K: 10})
	med.Register(source.New("db", rel, source.Capabilities{}), k)
	srv := httptest.NewServer(New(med))
	t.Cleanup(srv.Close)
	return srv
}

func TestQueryNaNValueIsNull(t *testing.T) {
	srv := nanServer(t)
	resp, body := postQuery(t, srv, `{"sql": "SELECT * FROM db WHERE body_style = 'Convt'"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("body %q: %v", body, err)
	}
	ratings := map[float64]any{}
	for _, a := range qr.Certain {
		ratings[a.Values["id"].(float64)] = a.Values["rating"]
	}
	if len(ratings) != 3 || ratings[1] != nil || ratings[2] != 4.5 || ratings[4] != nil {
		t.Errorf("certain ratings by id = %v, want 1:null 2:4.5 4:null", ratings)
	}
}

// TestWriteJSONEncodeFailureIs500 pins the remaining encode-failure path: a
// value encoding/json refuses answers 500, counted as a server error.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	s := New(core.New(core.Config{}))
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || !strings.Contains(eb.Error, "encode response") {
		t.Errorf("body %q (%v), want an encode error", rec.Body.Bytes(), err)
	}
	if got := s.serverErrors.Load(); got != 1 {
		t.Errorf("server_errors = %d, want 1", got)
	}
}
