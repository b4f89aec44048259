package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"qpiad/internal/relation"
)

// The answer-cache hit path: a hit shares its sections with the cached
// master, so these tests check that no caller edit the contract allows
// (reslice, append, Project, SortBy) reaches the master.

// detached copies a result's sections and Issued, so a later write to the
// cached master cannot change the copy too.
func detached(rs *ResultSet) *ResultSet {
	cp := *rs
	cp.Certain = slices.Clone(rs.Certain)
	cp.Possible = slices.Clone(rs.Possible)
	cp.Unranked = slices.Clone(rs.Unranked)
	cp.Issued = slices.Clone(rs.Issued)
	return &cp
}

// byPriceDesc orders tuples by descending price: not the rank order.
func byPriceDesc(s *relation.Schema) func(a, b relation.Tuple) int {
	col := s.MustIndex("price")
	return func(a, b relation.Tuple) int {
		x, y := a[col].IntVal(), b[col].IntVal()
		switch {
		case x > y:
			return -1
		case x < y:
			return 1
		}
		return 0
	}
}

// checkRankOrder fails unless the possible answers are in descending
// confidence, the order the pipeline ranks them in.
func checkRankOrder(t *testing.T, rs *ResultSet) {
	t.Helper()
	for i := 1; i < len(rs.Possible); i++ {
		if rs.Possible[i].Confidence > rs.Possible[i-1].Confidence {
			t.Fatalf("possible answer %d (confidence %v) ranks above %d (%v)", i, rs.Possible[i].Confidence, i-1, rs.Possible[i-1].Confidence)
		}
	}
}

func TestAnswerCacheHitSharesSections(t *testing.T) {
	cfg := Config{Alpha: 0, K: 10}
	f := newFixture(t, cfg)
	q := convtQuery()
	if _, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", q); err != nil {
		t.Fatal(err)
	}
	v, ok := f.m.cache.Get(answerKey("cars", q, f.m.Config()))
	if !ok {
		t.Fatal("the cold query left no cache entry")
	}
	master := v.(*ResultSet)
	hit, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if hit == master {
		t.Fatal("a hit returned the cached header itself")
	}
	if len(master.Certain) == 0 || len(master.Possible) == 0 || len(master.Issued) == 0 {
		t.Fatalf("fixture query too small: %d certain, %d possible, %d issued", len(master.Certain), len(master.Possible), len(master.Issued))
	}
	for _, sec := range []struct {
		name                 string
		hitLen, hitCap, mLen int
		hit0, master0        any
	}{
		{"certain", len(hit.Certain), cap(hit.Certain), len(master.Certain), &hit.Certain[0], &master.Certain[0]},
		{"possible", len(hit.Possible), cap(hit.Possible), len(master.Possible), &hit.Possible[0], &master.Possible[0]},
		{"issued", len(hit.Issued), cap(hit.Issued), len(master.Issued), &hit.Issued[0], &master.Issued[0]},
	} {
		if sec.hitLen != sec.mLen || sec.hitCap != sec.hitLen {
			t.Errorf("%s: hit len %d cap %d, master len %d: want the master's length with cap == len", sec.name, sec.hitLen, sec.hitCap, sec.mLen)
		}
		if sec.hit0 != sec.master0 {
			t.Errorf("%s: the hit copied the master's array instead of sharing it", sec.name)
		}
	}
	if cap(hit.Unranked) != len(hit.Unranked) || len(hit.Unranked) != len(master.Unranked) {
		t.Errorf("unranked: hit len %d cap %d, master len %d", len(hit.Unranked), cap(hit.Unranked), len(master.Unranked))
	}
}

func TestAnswerCacheHitCallerEditsStayLocal(t *testing.T) {
	f := newFixture(t, Config{Alpha: 0, K: 10})
	q := convtQuery()
	first, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	cold := detached(first)
	checkRankOrder(t, cold)
	byPrice := byPriceDesc(f.ed.Schema)
	for _, edit := range []struct {
		name string
		do   func(rs *ResultSet)
	}{
		{"append", func(rs *ResultSet) {
			rs.Certain = append(rs.Certain, rs.Possible[0])
			rs.Possible = append(rs.Possible, rs.Certain[0])
			rs.Unranked = append(rs.Unranked, rs.Certain[1])
			rs.Issued = append(rs.Issued, RewrittenQuery{TargetAttr: "appended"})
		}},
		{"reslice", func(rs *ResultSet) {
			rs.Certain = rs.Certain[3:7]
			rs.Possible = rs.Possible[:1]
			rs.Issued = rs.Issued[1:]
		}},
		{"reslice to a full slice, then append", func(rs *ResultSet) {
			rs.Possible = append(rs.Possible[:2:2], rs.Certain[0])
		}},
		{"SortBy", func(rs *ResultSet) {
			rs.SortBy(byPrice)
			if !slices.IsSortedFunc(rs.Possible, func(a, b Answer) int { return byPrice(a.Tuple, b.Tuple) }) {
				t.Fatal("SortBy left the possible answers unsorted")
			}
		}},
		{"Project", func(rs *ResultSet) {
			if _, _, err := rs.Project(f.ed.Schema, []string{"price", "make"}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		hit, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", q)
		if err != nil {
			t.Fatal(err)
		}
		edit.do(hit)
		next, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(next, cold) {
			t.Fatalf("after %s on one hit, the next hit differs from the cold result", edit.name)
		}
		checkRankOrder(t, next)
	}
	if st := f.m.CacheStats(); st.Misses != 1 {
		t.Errorf("cache stats %+v: want one miss, every later call a hit", st)
	}
}

// TestAnswerCacheHitAllocations bounds what a hit allocates: a header, the
// cache key and the lookup, not a copy of the answers. Copying the
// sections, as hits once did, allocates over 200 KB per hit here.
func TestAnswerCacheHitAllocations(t *testing.T) {
	f := newFixture(t, Config{Alpha: 0, K: 10})
	q := convtQuery()
	cold, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Certain) < 1000 || len(cold.Possible) < 100 {
		t.Fatalf("fixture query too small to show a copy: %d certain, %d possible", len(cold.Certain), len(cold.Possible))
	}
	// The least of a few rounds, so that a goroutine left running by
	// another test cannot charge its allocations to the hits.
	const hits = 100
	perHit := uint64(math.MaxUint64)
	for round := 0; round < 5; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < hits; i++ {
			if _, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", q); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perHit = min(perHit, (after.TotalAlloc-before.TotalAlloc)/hits)
	}
	t.Logf("%d certain, %d possible answers: %d B allocated per hit", len(cold.Certain), len(cold.Possible), perHit)
	if perHit >= 4096 {
		t.Errorf("a hit allocates %d B; want under 4 KB", perHit)
	}
}

// TestAnswerCacheHitConcurrentCallers has goroutines edit their hits the
// ways the contract allows, all at once, each checking its own result,
// while the master they share must stay as cold.
func TestAnswerCacheHitConcurrentCallers(t *testing.T) {
	f := newFixture(t, Config{Alpha: 0, K: 10})
	q := convtQuery()
	first, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	cold := detached(first)
	byPrice := byPriceDesc(f.ed.Schema)
	sorted := detached(cold)
	sorted.SortBy(byPrice)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				rs, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", q)
				if err != nil {
					errs <- err
					return
				}
				want := cold
				switch (g + r) % 3 {
				case 0:
					rs.SortBy(byPrice)
					want = sorted
				case 1:
					rs.Certain = append(rs.Certain[:5:5], rs.Possible[0])
					rs.Possible = rs.Possible[:1]
					if len(rs.Certain) != 6 || !reflect.DeepEqual(rs.Certain[:5], cold.Certain[:5]) || !reflect.DeepEqual(rs.Possible, cold.Possible[:1]) {
						errs <- fmt.Errorf("goroutine %d: edited hit reads wrong", g)
						return
					}
					continue
				}
				if !reflect.DeepEqual(rs, want) {
					errs <- fmt.Errorf("goroutine %d round %d: result differs from its reference", g, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	last, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(last, cold) {
		t.Error("concurrent edits reached the cached master")
	}
}
