package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"qpiad/internal/core"
)

// Cache hits share their answer sections with the answer cache, and reply
// bodies are appended into pooled buffers. These tests check both over
// HTTP: every body equals the one the same SQL gets with the cache
// bypassed.

// TestCachedSelectOrderByKeepsRankOrder sorts a hit with ORDER BY and then
// asks for the same query without it: the cached entry must still be in
// rank order.
func TestCachedSelectOrderByKeepsRankOrder(t *testing.T) {
	med := testMediator(t, core.Config{Alpha: 0, K: 10})
	srv := httptest.NewServer(New(med))
	t.Cleanup(srv.Close)
	const plain = "SELECT * FROM cars WHERE body_style = 'Convt'"
	const ordered = plain + " ORDER BY price DESC LIMIT 3"
	post := func(sql string, noCache bool) []byte {
		return postJSON(t, srv.URL+"/query", map[string]any{"sql": sql, "no_cache": noCache})
	}
	plainRef, orderedRef := post(plain, true), post(ordered, true)

	sameWire(t, "miss", post(plain, false), plainRef)
	sameWire(t, "ORDER BY hit", post(ordered, false), orderedRef)
	sameWire(t, "hit after ORDER BY", post(plain, false), plainRef)
	sameWire(t, "ORDER BY hit again", post(ordered, false), orderedRef)
	if st := med.CacheStats(); st.Misses != 1 || st.Hits != 3 {
		t.Errorf("cache stats %+v: want 1 miss and 3 hits", st)
	}
}

// TestCachedSelectsConcurrentClients has clients post cached selects that
// mix ORDER BY, LIMIT and projection over the same cache entries, all at
// once; every body must equal its no-cache reference.
func TestCachedSelectsConcurrentClients(t *testing.T) {
	med := testMediator(t, core.Config{Alpha: 0, K: 10})
	srv := httptest.NewServer(New(med))
	t.Cleanup(srv.Close)
	sqls := []string{
		"SELECT * FROM cars WHERE body_style = 'Convt'",
		"SELECT * FROM cars WHERE body_style = 'Convt' ORDER BY price DESC",
		"SELECT make, price FROM cars WHERE body_style = 'Convt' ORDER BY year, price LIMIT 7",
		"SELECT model FROM cars WHERE body_style = 'Convt' LIMIT 5",
		"SELECT * FROM cars WHERE make = 'Honda' AND price < 9000",
		"SELECT price, model FROM cars WHERE make = 'Honda' AND price < 9000 ORDER BY price LIMIT 20",
		"SELECT * FROM cars WHERE make = 'Honda' AND price < 9000 ORDER BY year DESC, model",
	}
	refs := make([][]byte, len(sqls))
	for i, sql := range sqls {
		refs[i] = postJSON(t, srv.URL+"/query", map[string]any{"sql": sql, "no_cache": true})
		postJSON(t, srv.URL+"/query", map[string]any{"sql": sql}) // warm the cache
	}
	warm := med.CacheStats()

	const clients, rounds = 6, 15
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(sqls)
				got, err := postSelect(srv.URL, sqls[i])
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, refs[i]) {
					errs <- fmt.Errorf("client %d round %d: %s:\n got %s\nwant %s", c, r, sqls[i], got, refs[i])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := med.CacheStats(); st.Misses != warm.Misses || st.Hits != warm.Hits+clients*rounds {
		t.Errorf("cache stats %+v after warm-up %+v: want every concurrent request a hit", st, warm)
	}
}

// postSelect posts one cached select and returns its 200 body.
func postSelect(url, sql string) ([]byte, error) {
	raw, err := json.Marshal(map[string]any{"sql": sql})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", sql, resp.StatusCode, body)
	}
	return body, nil
}
