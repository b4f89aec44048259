package core

import (
	"context"
	"sync"
	"testing"
)

// TestConcurrentRegisterDuringQueries pins the registry's concurrency
// contract: Register (the knowledge-reload path the chaos harness drives
// mid-run) may run while queries are in flight. Under -race this test
// fails loudly if any query path still reads the source/knowledge maps
// without the registry lock. Queries that resolved their source before a
// concurrent swap finish against the generation they saw; answers must be
// produced throughout.
func TestConcurrentRegisterDuringQueries(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	q := convtQuery()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rs, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", q)
				if err != nil {
					t.Errorf("query during reload: %v", err)
					return
				}
				if len(rs.Certain) == 0 {
					t.Error("no certain answers during reload")
					return
				}
			}
		}()
	}
	// Re-register the same source/knowledge repeatedly — the reload path:
	// each swap invalidates the source's cached answers and republishes the
	// (identical) knowledge generation.
	for i := 0; i < 50; i++ {
		f.m.Register(f.src, f.k)
		if _, ok := f.m.Knowledge("cars"); !ok {
			t.Fatal("knowledge vanished mid-reload")
		}
		f.m.SourceNames()
		f.m.BreakerSnapshot("cars")
	}
	close(stop)
	wg.Wait()
}
