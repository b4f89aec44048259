package httpapi

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"qpiad/internal/core"
	"qpiad/internal/leakcheck"
)

// TestQueryStreamRunsCountLines checks that /metrics counts one streamed
// event per NDJSON line written, whether a run's lines leave in one write
// or in several 32 KiB chunks: a full stream (its certain run spans
// several chunks), a top-N stream and a projected one.
func TestQueryStreamRunsCountLines(t *testing.T) {
	srv := testServer(t)
	lines := 0
	for _, body := range []map[string]any{
		{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'"},
		{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'", "top_n": 2},
		{"sql": "SELECT make, model FROM cars WHERE model = 'Accord'"},
	} {
		got := postJSON(t, srv.URL+"/query?stream=1", body)
		if !bytes.HasSuffix(got, []byte("\n")) || !bytes.Contains(got, []byte(`"event":"summary"`)) {
			t.Fatalf("%v: stream not closed by a summary line", body)
		}
		lines += bytes.Count(got, []byte("\n"))
	}
	if m := getMetrics(t, srv); m.Streaming.Requests != 3 || m.Streaming.Events != int64(lines) {
		t.Errorf("streaming metrics %+v, want 3 requests and %d events, one per line", m.Streaming, lines)
	}
}

// gatedListener hands out server connections that write their first
// streamChunk bytes at once and hold every later write until gate closes.
// A client that hangs up before closing the gate does so while the server
// is inside its first run, however much the sockets would buffer.
type gatedListener struct {
	net.Listener
	gate chan struct{}
}

func (l gatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &gatedConn{Conn: c, gate: l.gate}, nil
}

// gatedConn is one gatedListener connection. Only the goroutine serving it
// writes, so written needs no lock.
type gatedConn struct {
	net.Conn
	gate    chan struct{}
	written int
}

func (c *gatedConn) Write(p []byte) (int, error) {
	if c.written >= streamChunk {
		<-c.gate
	}
	c.written += len(p)
	return c.Conn.Write(p)
}

// TestQueryStreamRunsHangUp hangs up a client while the server writes a
// certain run of thousands of answers: the server counts one disconnect,
// counts only the lines it wrote, and leaves no goroutine behind.
func TestQueryStreamRunsHangUp(t *testing.T) {
	med := testMediator(t, core.Config{Alpha: 0, K: 10})
	const sql = "SELECT * FROM cars WHERE year > 0"
	st, _ := parseFor(t, med, sql)
	src, _ := med.Source("cars")
	certain, err := src.Query(st.Query)
	if err != nil || len(certain) < 1000 {
		t.Fatalf("base query: %d tuples, %v; want a run of at least 1000", len(certain), err)
	}
	s := New(med)
	srv := httptest.NewUnstartedServer(s)
	gate := make(chan struct{})
	srv.Listener = gatedListener{Listener: srv.Listener, gate: gate}
	srv.Start()
	t.Cleanup(srv.Close)
	snap := leakcheck.Take()

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	body := `{"sql": "` + sql + `", "no_cache": true}`
	fmt.Fprintf(conn, "POST /query?stream=1 HTTP/1.1\r\nHost: qpiad\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	if err != nil || !bytes.Contains(line, []byte(`"certain":true`)) {
		t.Fatalf("first line %q, %v; want a certain answer", line, err)
	}
	conn.Close()
	close(gate)

	for deadline := time.Now().Add(10 * time.Second); s.clientDisconnects.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the server never saw the hang-up")
		}
	}
	if leaks := snap.Check(leakcheck.WithRetries(500)); len(leaks) > 0 {
		t.Errorf("goroutines left after the hang-up: %v", leaks)
	}
	m := getMetrics(t, srv)
	if m.HTTP.ClientDisconnects != 1 || m.Streaming.Events >= int64(len(certain)) {
		t.Errorf("%d disconnects and %d lines counted, want 1 disconnect inside the %d-answer run",
			m.HTTP.ClientDisconnects, m.Streaming.Events, len(certain))
	}
}
