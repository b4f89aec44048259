package source

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"qpiad/internal/faults"
	"qpiad/internal/relation"
)

func carRel() *relation.Relation {
	s := relation.MustSchema(
		relation.Attribute{Name: "make", Kind: relation.KindString},
		relation.Attribute{Name: "model", Kind: relation.KindString},
		relation.Attribute{Name: "year", Kind: relation.KindInt},
		relation.Attribute{Name: "body_style", Kind: relation.KindString},
	)
	r := relation.New("cars", s)
	rows := []relation.Tuple{
		{relation.String("Audi"), relation.String("A4"), relation.Int(2001), relation.String("Convt")},
		{relation.String("BMW"), relation.String("Z4"), relation.Int(2002), relation.String("Convt")},
		{relation.String("BMW"), relation.String("Z4"), relation.Int(2003), relation.Null()},
		{relation.String("Honda"), relation.String("Civic"), relation.Int(2004), relation.Null()},
		{relation.String("Toyota"), relation.String("Camry"), relation.Int(2002), relation.String("Sedan")},
	}
	for _, t := range rows {
		r.MustInsert(t)
	}
	return r
}

func TestQueryBasic(t *testing.T) {
	src := New("cars", carRel(), Capabilities{})
	rows, err := src.Query(relation.NewQuery("cars", relation.Eq("make", relation.String("BMW"))))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	st := src.Stats()
	if st.Queries != 1 || st.TuplesReturned != 2 || st.Rejected != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestQueryReturnsCopies(t *testing.T) {
	rel := carRel()
	src := New("cars", rel, Capabilities{})
	rows, err := src.Query(relation.NewQuery("cars", relation.Eq("make", relation.String("Audi"))))
	if err != nil {
		t.Fatal(err)
	}
	rows[0][0] = relation.String("Hacked")
	if rel.Tuple(0)[0].Str() != "Audi" {
		t.Error("Query must return copies, not aliases")
	}

	// The rows of one call share one allocation, each capped at its
	// length: an append to one reallocates instead of writing into the
	// next row.
	pristine := rel.Clone()
	rows, err = src.Query(relation.NewQuery("cars", relation.Eq("make", relation.String("BMW"))))
	if err != nil || len(rows) != 2 {
		t.Fatalf("BMW rows = %d, err %v; want 2", len(rows), err)
	}
	for i, r := range rows {
		if cap(r) != len(r) {
			t.Errorf("row %d: cap %d, len %d; want cap == len", i, cap(r), len(r))
		}
	}
	second := rows[1].Clone()
	_ = append(rows[0], relation.String("appended"))
	if !reflect.DeepEqual(rows[1], second) {
		t.Errorf("appending to row 0 changed row 1: %v, want %v", rows[1], second)
	}
	for i := 0; i < rel.Len(); i++ {
		if !reflect.DeepEqual(rel.Tuple(i), pristine.Tuple(i)) {
			t.Errorf("appending to a returned row changed store tuple %d", i)
		}
	}
}

// nullStyle keeps the cars whose body style is missing.
func nullStyle(t relation.Tuple) bool { return t[3].IsNull() }

// TestFetchKeepNothing pins that a keep rejecting every tuple copies
// nothing, while the source still transfers and accounts every match.
func TestFetchKeepNothing(t *testing.T) {
	src := New("cars", carRel(), Capabilities{})
	q := relation.NewQuery("cars", relation.Eq("make", relation.String("BMW")))
	rows, n, err := src.Fetch(context.Background(), q, func(relation.Tuple) bool { return false })
	if err != nil || len(rows) != 0 || n != 2 {
		t.Fatalf("Fetch = %d rows, %d transferred, err %v; want 0 rows of 2 transferred", len(rows), n, err)
	}
	if st := src.Stats(); st.Queries != 1 || st.TuplesReturned != 2 {
		t.Errorf("stats = %+v, want 1 query and 2 tuples returned", st)
	}
}

// TestFetchKeepsScanOrder pins that the rows are exactly the transferred
// tuples keep accepts, as copies, in Scan order.
func TestFetchKeepsScanOrder(t *testing.T) {
	rel := carRel()
	src := New("cars", rel, Capabilities{})
	q := relation.NewQuery("cars")
	rows, n, err := src.Fetch(context.Background(), q, nullStyle)
	if err != nil {
		t.Fatal(err)
	}
	var want []relation.Tuple
	for tu := range rel.Scan(q) {
		if nullStyle(tu) {
			want = append(want, tu.Clone())
		}
	}
	if n != rel.Len() || len(want) != 2 || !reflect.DeepEqual(rows, want) {
		t.Errorf("Fetch = %v, %d transferred; want %v, %d transferred", rows, n, want, rel.Len())
	}
	if st := src.Stats(); st.TuplesReturned != rel.Len() {
		t.Errorf("TuplesReturned = %d, want %d", st.TuplesReturned, rel.Len())
	}
}

// TestFetchCapCountsTransferred pins that the result cap, from MaxResults
// or an injected page truncation, counts the tuples the source transfers,
// not the ones keep accepts. The first BMW is a Convt: a cap of one stops
// the scan there, where a cap on kept tuples would go on to the second
// BMW, whose body style is missing.
func TestFetchCapCountsTransferred(t *testing.T) {
	q := relation.NewQuery("cars", relation.Eq("make", relation.String("BMW")))
	capped := New("cars", carRel(), Capabilities{MaxResults: 1})
	truncated := New("cars", carRel(), Capabilities{})
	truncated.SetFaults(faults.New(faults.Profile{Seed: 1, TruncateRate: 1, TruncateTo: 1}))
	for _, c := range []struct {
		name string
		src  *Source
	}{{"MaxResults", capped}, {"TruncateTo", truncated}} {
		rows, n, err := c.src.Fetch(context.Background(), q, nullStyle)
		if err != nil || len(rows) != 0 || n != 1 {
			t.Errorf("%s: Fetch = %d rows, %d transferred, err %v; want 0 rows of 1 transferred",
				c.name, len(rows), n, err)
		}
		if st := c.src.Stats(); st.TuplesReturned != 1 {
			t.Errorf("%s: TuplesReturned = %d, want 1", c.name, st.TuplesReturned)
		}
	}
}

func TestFormSemanticsExcludeNullsOnBoundAttr(t *testing.T) {
	// A form query body_style=Convt must not return the tuples whose
	// body_style is null — that is exactly why QPIAD needs rewriting.
	src := New("cars", carRel(), Capabilities{})
	rows, err := src.Query(relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt"))))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("certain answers = %d, want 2", len(rows))
	}
	// But a query on model=Z4 returns the Z4 with null body_style.
	rows, err = src.Query(relation.NewQuery("cars", relation.Eq("model", relation.String("Z4"))))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("Z4 rows = %d, want 2 (incl. null body_style)", len(rows))
	}
}

func TestNullBindingRefused(t *testing.T) {
	src := New("cars", carRel(), Capabilities{})
	_, err := src.Query(relation.NewQuery("cars", relation.IsNull("body_style")))
	if !errors.Is(err, ErrNullBinding) {
		t.Fatalf("err = %v, want ErrNullBinding", err)
	}
	if src.Stats().Rejected != 1 || src.Stats().Queries != 0 {
		t.Errorf("rejection accounting: %+v", src.Stats())
	}
	// With AllowNullBinding the same query succeeds.
	src2 := New("cars", carRel(), Capabilities{AllowNullBinding: true})
	rows, err := src2.Query(relation.NewQuery("cars", relation.IsNull("body_style")))
	if err != nil || len(rows) != 2 {
		t.Errorf("null binding allowed: rows=%d err=%v", len(rows), err)
	}
}

func TestBindableAttrs(t *testing.T) {
	src := New("cars", carRel(), Capabilities{BindableAttrs: []string{"make", "model"}})
	if !src.Supports("make") || src.Supports("year") {
		t.Error("Supports misreads bindable attrs")
	}
	_, err := src.Query(relation.NewQuery("cars", relation.Eq("year", relation.Int(2002))))
	if !errors.Is(err, ErrUnsupportedAttr) {
		t.Fatalf("err = %v, want ErrUnsupportedAttr", err)
	}
	// Unknown attribute also unsupported.
	_, err = src.Query(relation.NewQuery("cars", relation.Eq("price", relation.Int(1))))
	if !errors.Is(err, ErrUnsupportedAttr) {
		t.Fatalf("err = %v, want ErrUnsupportedAttr", err)
	}
}

func TestRangeRefusal(t *testing.T) {
	src := New("cars", carRel(), Capabilities{DisallowRange: true})
	_, err := src.Query(relation.NewQuery("cars", relation.Between("year", relation.Int(2001), relation.Int(2003))))
	if !errors.Is(err, ErrRangeBinding) {
		t.Fatalf("err = %v, want ErrRangeBinding", err)
	}
	// Equality still fine.
	if _, err := src.Query(relation.NewQuery("cars", relation.Eq("year", relation.Int(2002)))); err != nil {
		t.Errorf("equality should pass: %v", err)
	}
}

func TestMaxResults(t *testing.T) {
	src := New("cars", carRel(), Capabilities{MaxResults: 1})
	rows, err := src.Query(relation.NewQuery("cars", relation.Eq("make", relation.String("BMW"))))
	if err != nil || len(rows) != 1 {
		t.Errorf("MaxResults: rows=%d err=%v", len(rows), err)
	}
}

func TestQueryBudget(t *testing.T) {
	src := New("cars", carRel(), Capabilities{MaxQueries: 2})
	q := relation.NewQuery("cars", relation.Eq("make", relation.String("BMW")))
	for i := 0; i < 2; i++ {
		if _, err := src.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	_, err := src.Query(q)
	if !errors.Is(err, ErrQueryBudget) {
		t.Fatalf("err = %v, want ErrQueryBudget", err)
	}
}

func TestResetStats(t *testing.T) {
	src := New("cars", carRel(), Capabilities{})
	src.Query(relation.NewQuery("cars", relation.Eq("make", relation.String("BMW"))))
	src.ResetStats()
	if src.Stats() != (Stats{}) {
		t.Errorf("ResetStats: %+v", src.Stats())
	}
}

func TestEmptyQueryReturnsAll(t *testing.T) {
	src := New("cars", carRel(), Capabilities{})
	rows, err := src.Query(relation.NewQuery("cars"))
	if err != nil || len(rows) != 5 {
		t.Errorf("empty query rows=%d err=%v", len(rows), err)
	}
}

func TestConcurrentAccounting(t *testing.T) {
	src := New("cars", carRel(), Capabilities{})
	q := relation.NewQuery("cars", relation.Eq("make", relation.String("BMW")))
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src.Query(q)
		}()
	}
	wg.Wait()
	st := src.Stats()
	if st.Queries != 20 || st.TuplesReturned != 40 {
		t.Errorf("concurrent stats = %+v", st)
	}
}
