package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qpiad/internal/core"
	"qpiad/internal/planner"
)

// postStream POSTs a streaming query and decodes the NDJSON lines.
func postStream(t *testing.T, srv *httptest.Server, body string) (*http.Response, []streamEventJSON) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/query?stream=1", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []streamEventJSON
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev streamEventJSON
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, events
}

func TestQueryStreamNDJSON(t *testing.T) {
	srv := testServer(t)
	resp, events := postStream(t, srv, `{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	last := events[len(events)-1]
	if last.Event != "summary" || last.Summary == nil {
		t.Fatalf("stream must end with a summary, got %+v", last)
	}
	var answers, certain, rewrites int
	sawSummary := false
	for i, ev := range events {
		switch ev.Event {
		case "answer":
			if ev.Answer == nil {
				t.Fatalf("answer event %d without answer payload", i)
			}
			answers++
			if ev.Answer.Certain {
				certain++
				if rewrites > 0 {
					t.Error("certain answer emitted after a rewrite event")
				}
			}
		case "rewrite":
			if ev.Rewrite == nil {
				t.Fatalf("rewrite event %d without rewrite payload", i)
			}
			if ev.Rewrite.Status == "" {
				t.Errorf("rewrite event %d has no status", i)
			}
			rewrites++
		case "summary":
			sawSummary = true
		default:
			t.Fatalf("unknown event type %q", ev.Event)
		}
	}
	if !sawSummary || certain == 0 || rewrites == 0 {
		t.Errorf("events: %d answers (%d certain), %d rewrites, summary=%v",
			answers, certain, rewrites, sawSummary)
	}
	sum := last.Summary
	if sum.Certain+sum.Possible+sum.Unranked != answers {
		t.Errorf("summary counts %d+%d+%d != %d emitted answers",
			sum.Certain, sum.Possible, sum.Unranked, answers)
	}
	if sum.Issued != rewrites {
		t.Errorf("summary issued %d != %d rewrite events", sum.Issued, rewrites)
	}

	// Streaming accounting is visible in /metrics.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m metricsResponse
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Streaming.Requests != 1 || m.Streaming.Events != int64(len(events)) {
		t.Errorf("stream metrics = %+v, want 1 request / %d events", m.Streaming, len(events))
	}
}

func TestQueryStreamProjection(t *testing.T) {
	srv := testServer(t)
	resp, events := postStream(t, srv, `{"sql": "SELECT make, model FROM cars WHERE body_style = 'Convt'"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	for _, ev := range events {
		if ev.Event != "answer" {
			continue
		}
		if len(ev.Answer.Values) != 2 {
			t.Fatalf("projected answer has %d columns: %v", len(ev.Answer.Values), ev.Answer.Values)
		}
		for _, attr := range []string{"make", "model"} {
			if _, ok := ev.Answer.Values[attr]; !ok {
				t.Errorf("projected answer missing %q", attr)
			}
		}
	}
}

func TestQueryStreamTopN(t *testing.T) {
	srv := testServer(t)
	resp, events := postStream(t, srv,
		`{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'", "top_n": 2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	sum := events[len(events)-1].Summary
	if sum == nil {
		t.Fatal("no summary")
	}
	// The fixture generates several rewrites and the first returns far more
	// than 2 possible answers, so the bound must trip.
	if !sum.EarlyStopped {
		t.Error("top_n=2 did not early-stop")
	}
	if sum.SkippedRewrites+sum.CancelledRewrites == 0 {
		t.Error("early stop saved nothing")
	}
	for _, ev := range events {
		if ev.Event == "rewrite" && (ev.Rewrite.Status == "skipped" || ev.Rewrite.Status == "cancelled") {
			return // at least one rewrite reported the stop on the wire
		}
	}
	t.Error("no rewrite event carries skipped/cancelled status")
}

func TestQueryStreamRejects(t *testing.T) {
	srv := testServer(t)
	for _, tc := range []struct {
		name, body, want string
	}{
		{"aggregate", `{"sql": "SELECT COUNT(*) FROM cars WHERE body_style = 'Convt'"}`, "aggregate"},
		{"order-by", `{"sql": "SELECT * FROM cars WHERE body_style = 'Convt' ORDER BY price"}`, "ORDER BY"},
		{"limit", `{"sql": "SELECT * FROM cars WHERE body_style = 'Convt' LIMIT 3"}`, "ORDER BY"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/query?stream=1", "application/json",
				bytes.NewBufferString(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(eb.Error, tc.want) {
				t.Errorf("error %q does not mention %q", eb.Error, tc.want)
			}
		})
	}
}

// TestQueryStreamEquivalentToBatch cross-checks the wire formats: the
// streamed answer set equals the batch endpoint's answer set for the same
// query.
func TestQueryStreamEquivalentToBatch(t *testing.T) {
	srv := testServer(t)
	sql := `{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'", "no_cache": true}`
	_, body := postQuery(t, srv, sql)
	var batch queryResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	_, events := postStream(t, srv, sql)
	var certain, possible, unranked int
	for _, ev := range events {
		if ev.Event != "answer" {
			continue
		}
		switch {
		case ev.Answer.Certain:
			certain++
		case ev.Unranked:
			unranked++
		default:
			possible++
		}
	}
	if certain != len(batch.Certain) || possible != len(batch.Possible) || unranked != len(batch.Unranked) {
		t.Errorf("stream answers %d/%d/%d != batch %d/%d/%d",
			certain, possible, unranked,
			len(batch.Certain), len(batch.Possible), len(batch.Unranked))
	}
}

// TestQueryStreamNaNValueIsNull pins a NaN tuple value on a stream: the line
// carries null and the stream still ends with its summary (it used to be cut
// there, counted as a client disconnect).
func TestQueryStreamNaNValueIsNull(t *testing.T) {
	srv := nanServer(t)
	resp, events := postStream(t, srv, `{"sql": "SELECT * FROM db WHERE body_style = 'Convt'"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var nulls int
	for _, ev := range events {
		if ev.Event == "answer" && ev.Answer.Values["rating"] == nil {
			nulls++
		}
	}
	if nulls != 2 {
		t.Errorf("%d answers with a null rating, want 2 (NaN and +Inf)", nulls)
	}
	if last := events[len(events)-1]; last.Event != "summary" || last.Summary.Certain != 3 {
		t.Errorf("last event = %+v, want a summary of 3 certain answers", last)
	}
}

// TestQueryStreamCertainAnswersBeforeRewrites pins time-to-first-answer
// under coalesced flushing: with every rewrite fetch held at a gate (the
// only slot of the cross-query scheduler, held by the test), the client
// reads the headers and every certain answer before the gate opens.
func TestQueryStreamCertainAnswersBeforeRewrites(t *testing.T) {
	sched := planner.NewScheduler(1)
	med := testMediator(t, core.Config{Alpha: 0, K: 10, Planner: &planner.Config{Scheduler: sched}})
	srv := httptest.NewServer(New(med))
	t.Cleanup(srv.Close)
	const sql = "SELECT * FROM cars WHERE body_style = 'Convt'"
	src, _ := med.Source("cars")
	st, _ := parseFor(t, med, sql)
	base, err := src.Query(st.Query)
	if err != nil || len(base) == 0 {
		t.Fatalf("base query: %d tuples, %v", len(base), err)
	}

	if err := sched.Acquire(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	gateOpen := false
	openGate := func() {
		if !gateOpen {
			gateOpen = true
			sched.Release()
		}
	}
	defer openGate()

	type result struct {
		resp *http.Response
		err  error
	}
	posted := make(chan result, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/query?stream=1", "application/json",
			strings.NewReader(`{"sql": "`+sql+`", "no_cache": true}`))
		posted <- result{resp, err}
	}()
	const wait = 10 * time.Second
	var resp *http.Response
	select {
	case r := <-posted:
		if r.err != nil {
			t.Fatal(r.err)
		}
		resp = r.resp
	case <-time.After(wait):
		t.Fatal("no response headers while the rewrite fetches wait")
	}
	defer resp.Body.Close()

	lines, done := make(chan []byte), make(chan struct{})
	defer close(done)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			select {
			case lines <- append([]byte(nil), sc.Bytes()...):
			case <-done:
				return
			}
		}
	}()
	next := func() (streamEventJSON, bool) {
		t.Helper()
		select {
		case line, ok := <-lines:
			var ev streamEventJSON
			if ok {
				if err := json.Unmarshal(line, &ev); err != nil {
					t.Fatalf("bad line %q: %v", line, err)
				}
			}
			return ev, ok
		case <-time.After(wait):
			t.Fatal("stream stalled")
		}
		return streamEventJSON{}, false
	}
	for i := range base {
		ev, ok := next()
		if !ok || ev.Event != "answer" || !ev.Answer.Certain {
			t.Fatalf("line %d before the gate opened = %+v (open %v), want a certain answer", i+1, ev, ok)
		}
	}
	// The rewrite fetches are parked at the gate, not merely not started.
	for deadline := time.Now().Add(wait); sched.Stats().Queued == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no rewrite fetch reached the gate")
		}
	}

	openGate()
	var rewrites int
	var last streamEventJSON
	for ev, ok := next(); ok; ev, ok = next() {
		if ev.Event == "rewrite" {
			rewrites++
		}
		last = ev
	}
	if rewrites == 0 || last.Event != "summary" {
		t.Errorf("after the gate: %d rewrite events, last event %q; want rewrites and a closing summary", rewrites, last.Event)
	}
}

// flushRecorder counts the flushes a handler makes.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushRecorder) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestQueryStreamCoalescesFlushes checks a burst of certain answers is not
// flushed line by line: flushes happen only when the pipeline pauses.
func TestQueryStreamCoalescesFlushes(t *testing.T) {
	s := New(testMediator(t, core.Config{Alpha: 0, K: 10}))
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	req := httptest.NewRequest(http.MethodPost, "/query?stream=1",
		strings.NewReader(`{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'", "no_cache": true}`))
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.Bytes())
	}
	lines := bytes.Count(rec.Body.Bytes(), []byte("\n"))
	certain := bytes.Count(rec.Body.Bytes(), []byte(`"certain":true`))
	if certain < 10 {
		t.Fatalf("fixture has only %d certain answers", certain)
	}
	if rec.flushes == 0 || rec.flushes >= lines {
		t.Errorf("%d flushes for %d lines (%d certain answers), want at least one and fewer than lines", rec.flushes, lines, certain)
	}
	t.Logf("%d flushes for %d lines (%d certain answers)", rec.flushes, lines, certain)
}
