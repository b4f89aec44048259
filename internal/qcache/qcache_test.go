package qcache

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetPut(t *testing.T) {
	c := New(Config{Capacity: 16, Shards: 2})
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v; want 1, true", v, ok)
	}
	c.Put("a", 2)
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatalf("Get(a) after overwrite = %v; want 2", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 2 hits, 1 miss, 1 entry", st)
	}
}

func TestLRUBoundAndEviction(t *testing.T) {
	// One shard, capacity 4: inserting 5 keys must evict the least
	// recently used one.
	c := New(Config{Capacity: 4, Shards: 1})
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	// Touch k0 so k1 becomes LRU.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Put("k4", 4)
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 should have been evicted as LRU")
	}
	for _, k := range []string{"k0", "k2", "k3", "k4"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s unexpectedly evicted", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 4 {
		t.Fatalf("stats = %+v; want 1 eviction, 4 entries", st)
	}
}

func TestCapacityBoundAcrossShards(t *testing.T) {
	c := New(Config{Capacity: 32, Shards: 4})
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	if n := c.Len(); n > 32 {
		t.Fatalf("cache holds %d entries; capacity is 32", n)
	}
}

func TestDoComputesOnceAndCaches(t *testing.T) {
	c := New(Config{Capacity: 16, Shards: 1})
	calls := 0
	fn := func() (any, error) { calls++; return "val", nil }
	for i := 0; i < 3; i++ {
		v, err := c.Do("k", fn)
		if err != nil || v.(string) != "val" {
			t.Fatalf("Do = %v, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times; want 1", calls)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New(Config{Capacity: 16, Shards: 1})
	boom := errors.New("boom")
	calls := 0
	if _, err := c.Do("k", func() (any, error) { calls++; return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v; want boom", err)
	}
	v, err := c.Do("k", func() (any, error) { calls++; return 7, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("retry Do = %v, %v; want 7, nil", v, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times; want 2 (error must not be cached)", calls)
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	c := New(Config{Capacity: 16, Shards: 1})
	const waiters = 8
	var calls atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do("hot", func() (any, error) {
				calls.Add(1)
				close(started)
				<-release
				return "shared", nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	<-started // the single computation is running; the rest must queue
	// Wait until every other caller is parked on the in-flight call. They
	// cannot hit the cache (nothing is cached until release) and cannot
	// start their own computation (the key is in flight), so Coalesced
	// must reach waiters-1.
	for deadline := time.Now().Add(10 * time.Second); c.Stats().Coalesced < waiters-1; {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for coalesced waiters: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times under concurrency; want 1", n)
	}
	for i, v := range results {
		if v.(string) != "shared" {
			t.Fatalf("waiter %d got %v; want shared", i, v)
		}
	}
	if st := c.Stats(); st.Coalesced != waiters-1 {
		t.Fatalf("coalesced = %d; want %d", st.Coalesced, waiters-1)
	}
}

// TestDoPanicReleasesWaiters checks that a computation that panics does
// not keep its key in flight: a caller coalesced on it returns an error
// naming the panic, the panic goes on in the caller that ran it, and a
// later Do runs fn afresh. Every wait has a deadline, so a stuck slot fails
// the test instead of hanging it.
func TestDoPanicReleasesWaiters(t *testing.T) {
	c := New(Config{Capacity: 16, Shards: 1})
	started, release := make(chan struct{}), make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		//lint:allow errdrop fn panics, so Do never returns
		c.Do("k", func() (any, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, err := c.Do("k", func() (any, error) { return nil, errors.New("waiter ran fn") })
		waiter <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Coalesced < 1; {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for the waiter to coalesce: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	timeout := time.After(5 * time.Second)
	select {
	case err := <-waiter:
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("waiter err = %v, want an error naming the panic", err)
		}
	case <-timeout:
		t.Fatal("waiter still blocked after the computation panicked")
	}
	select {
	case p := <-leader:
		if p != "boom" {
			t.Errorf("leader recovered %v, want the panic value boom", p)
		}
	case <-timeout:
		t.Fatal("leader never returned")
	}
	later := make(chan any, 1)
	go func() {
		v, err := c.Do("k", func() (any, error) { return 7, nil })
		if err != nil {
			v = err
		}
		later <- v
	}()
	select {
	case v := <-later:
		if v != 7 {
			t.Errorf("later Do = %v, want 7 from a fresh fn", v)
		}
	case <-timeout:
		t.Fatal("later Do still blocked on the panicked computation")
	}
}

func TestDeleteAndDeletePrefix(t *testing.T) {
	c := New(Config{Capacity: 64, Shards: 4})
	c.Put("cars\x1eq1", 1)
	c.Put("cars\x1eq2", 2)
	c.Put("census\x1eq1", 3)

	if !c.Delete("cars\x1eq1") {
		t.Fatal("Delete existing key = false")
	}
	if c.Delete("cars\x1eq1") {
		t.Fatal("Delete absent key = true")
	}
	if n := c.DeletePrefix("cars\x1e"); n != 1 {
		t.Fatalf("DeletePrefix removed %d; want 1", n)
	}
	if _, ok := c.Get("cars\x1eq2"); ok {
		t.Fatal("prefix-deleted key still present")
	}
	if _, ok := c.Get("census\x1eq1"); !ok {
		t.Fatal("unrelated key removed by DeletePrefix")
	}
}

func TestPurge(t *testing.T) {
	c := New(Config{Capacity: 16, Shards: 2})
	c.Put("a", 1)
	c.Put("b", 2)
	c.Purge()
	if n := c.Len(); n != 0 {
		t.Fatalf("Len after Purge = %d; want 0", n)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("purged key still present")
	}
}

func TestDefaults(t *testing.T) {
	c := New(Config{})
	if len(c.shards) != 8 {
		t.Fatalf("default shards = %d; want 8", len(c.shards))
	}
	if c.capShard != 1024/8 {
		t.Fatalf("default per-shard capacity = %d; want %d", c.capShard, 1024/8)
	}
	// Shards round up to a power of two.
	c = New(Config{Shards: 3})
	if len(c.shards) != 4 {
		t.Fatalf("shards for 3 = %d; want 4", len(c.shards))
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	// Race-detector stress: concurrent Get/Put/Do/Delete/DeletePrefix/Stats.
	c := New(Config{Capacity: 128, Shards: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%50)
				switch i % 5 {
				case 0:
					c.Put(key, i)
				case 1:
					c.Get(key)
				case 2:
					c.Do(key, func() (any, error) { return i, nil })
				case 3:
					c.Delete(key)
				case 4:
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 128 {
		t.Fatalf("cache exceeded capacity under concurrency: %d entries", n)
	}
}
