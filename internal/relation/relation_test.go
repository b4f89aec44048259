package relation

import (
	"bytes"
	"math/rand"
	"testing"
)

// paperFragment builds the Table 2 fragment of the Car database.
func paperFragment() *Relation {
	s := MustSchema(
		Attribute{"id", KindInt},
		Attribute{"make", KindString},
		Attribute{"model", KindString},
		Attribute{"year", KindInt},
		Attribute{"body_style", KindString},
	)
	r := New("cars", s)
	rows := []Tuple{
		{Int(1), String("Audi"), String("A4"), Int(2001), String("Convt")},
		{Int(2), String("BMW"), String("Z4"), Int(2002), String("Convt")},
		{Int(3), String("Porsche"), String("Boxster"), Int(2005), String("Convt")},
		{Int(4), String("BMW"), String("Z4"), Int(2003), Null()},
		{Int(5), String("Honda"), String("Civic"), Int(2004), Null()},
		{Int(6), String("Toyota"), String("Camry"), Int(2002), String("Sedan")},
	}
	for _, t := range rows {
		r.MustInsert(t)
	}
	return r
}

func TestInsertValidation(t *testing.T) {
	r := paperFragment()
	if err := r.Insert(Tuple{Int(7)}); err == nil {
		t.Error("arity mismatch should error")
	}
	if err := r.Insert(Tuple{String("x"), String("a"), String("b"), Int(1), Null()}); err == nil {
		t.Error("kind mismatch should error")
	}
	if err := r.Insert(Tuple{Null(), Null(), Null(), Null(), Null()}); err != nil {
		t.Errorf("all-null tuple should insert: %v", err)
	}
}

func TestIntCoercedIntoFloatColumn(t *testing.T) {
	s := MustSchema(Attribute{"price", KindFloat})
	r := New("r", s)
	if err := r.Insert(Tuple{Int(15000)}); err != nil {
		t.Fatal(err)
	}
	if got := r.Tuple(0)[0]; got.Kind() != KindFloat || got.FloatVal() != 15000 {
		t.Errorf("coercion failed: %v", got)
	}
}

func TestSelectCertainAnswers(t *testing.T) {
	r := paperFragment()
	// Paper's running example: σ(body_style=Convt) returns t1,t2,t3 — the
	// certain answers. Tuples 4,5 (null body_style) are possible answers
	// and must NOT be returned by plain selection.
	got := r.Select(NewQuery("cars", Eq("body_style", String("Convt"))))
	if len(got) != 3 {
		t.Fatalf("certain answers = %d, want 3", len(got))
	}
	for _, tu := range got {
		if tu[4].Str() != "Convt" {
			t.Errorf("non-Convt tuple in certain answers: %v", tu)
		}
	}
}

func TestSelectNullBinding(t *testing.T) {
	r := paperFragment()
	got := r.Select(NewQuery("cars", IsNull("body_style")))
	if len(got) != 2 {
		t.Fatalf("null-bound selection = %d, want 2", len(got))
	}
}

func TestSelectScanFallback(t *testing.T) {
	r := paperFragment()
	// Range-only query: no equality predicate, falls back to scan.
	got := r.Select(NewQuery("cars", Between("year", Int(2002), Int(2003))))
	if len(got) != 3 {
		t.Fatalf("range selection = %d, want 3", len(got))
	}
}

func TestSelectIndexConsistentWithScan(t *testing.T) {
	r := paperFragment()
	q := NewQuery("cars", Eq("make", String("BMW")))
	viaIndex := r.Select(q)
	var viaScan []Tuple
	for _, tu := range r.Tuples() {
		if q.Matches(r.Schema, tu) {
			viaScan = append(viaScan, tu)
		}
	}
	if len(viaIndex) != len(viaScan) {
		t.Fatalf("index %d vs scan %d", len(viaIndex), len(viaScan))
	}
}

func TestIndexInvalidationOnInsert(t *testing.T) {
	r := paperFragment()
	q := NewQuery("cars", Eq("make", String("BMW")))
	if n := r.Count(q); n != 2 {
		t.Fatalf("precondition: %d BMWs", n)
	}
	r.MustInsert(Tuple{Int(7), String("BMW"), String("M3"), Int(2004), String("Coupe")})
	if n := r.Count(q); n != 3 {
		t.Errorf("after insert: %d BMWs, want 3 (stale index?)", n)
	}
}

func TestSelectDrivesFromSmallestPostingList(t *testing.T) {
	r := paperFragment()
	// make=BMW has 2 tuples, model=Boxster has 1: the conjunction must be
	// driven from the Boxster list. Observable effect: the Porsche predicate's
	// index decides, and the (contradictory) conjunction is empty.
	got := r.Select(NewQuery("cars",
		Eq("make", String("BMW")),
		Eq("model", String("Boxster"))))
	if len(got) != 0 {
		t.Errorf("contradictory conjunction returned %d tuples", len(got))
	}
	// Consistent conjunction: both predicates indexed, either drive order
	// must give the same single tuple.
	got = r.Select(NewQuery("cars",
		Eq("make", String("BMW")),
		Eq("model", String("Z4")),
		Eq("body_style", String("Convt"))))
	if len(got) != 1 || got[0][0].IntVal() != 2 {
		t.Errorf("conjunction = %v, want tuple 2", got)
	}
}

func TestSelectEmptyPostingListShortCircuits(t *testing.T) {
	r := paperFragment()
	// A predicate matching nothing empties the conjunction regardless of the
	// other predicates.
	got := r.Select(NewQuery("cars",
		Eq("make", String("Ferrari")),
		Eq("body_style", String("Convt"))))
	if len(got) != 0 {
		t.Errorf("empty posting list should short-circuit, got %d tuples", len(got))
	}
}

func TestSelectMultiPredicatePreservesOrder(t *testing.T) {
	r := paperFragment()
	// Whatever posting list drives, output must stay in tuple-position order.
	got := r.Select(NewQuery("cars",
		Eq("make", String("BMW")),
		Eq("model", String("Z4"))))
	if len(got) != 2 {
		t.Fatalf("BMW Z4 count = %d, want 2", len(got))
	}
	if got[0][0].IntVal() != 2 || got[1][0].IntVal() != 4 {
		t.Errorf("tuples out of position order: ids %v, %v", got[0][0], got[1][0])
	}
}

func TestCountMatchesSelect(t *testing.T) {
	r := paperFragment()
	for _, q := range []Query{
		NewQuery("cars", Eq("body_style", String("Convt"))),
		NewQuery("cars", IsNull("body_style")),
		NewQuery("cars", Between("year", Int(2002), Int(2003))),
		NewQuery("cars", Eq("make", String("Ferrari"))),
		NewQuery("cars"),
	} {
		if got, want := r.Count(q), len(r.Select(q)); got != want {
			t.Errorf("Count(%v) = %d, Select len = %d", q, got, want)
		}
	}
}

func TestInsertAll(t *testing.T) {
	r := paperFragment()
	fresh := New("cars", r.Schema)
	if err := fresh.InsertAll(r.Tuples()); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != r.Len() {
		t.Fatalf("InsertAll loaded %d tuples, want %d", fresh.Len(), r.Len())
	}
	for i := range r.Tuples() {
		if !fresh.Tuple(i).Equal(r.Tuple(i)) {
			t.Errorf("row %d differs after InsertAll", i)
		}
	}
	// Queries over the bulk-loaded relation agree with the incrementally
	// loaded one.
	q := NewQuery("cars", Eq("make", String("BMW")))
	if fresh.Count(q) != r.Count(q) {
		t.Error("bulk-loaded relation answers queries differently")
	}
}

func TestInsertAllRollsBackOnBadTuple(t *testing.T) {
	r := New("cars", paperFragment().Schema)
	good := Tuple{Int(1), String("Audi"), String("A4"), Int(2001), String("Convt")}
	bad := Tuple{Int(2)} // arity mismatch
	if err := r.InsertAll([]Tuple{good, bad, good}); err == nil {
		t.Fatal("bad tuple should error")
	}
	if r.Len() != 0 {
		t.Errorf("InsertAll is atomic: a failed batch should leave the relation untouched, len = %d", r.Len())
	}
	// A failed batch atop existing tuples restores the prior state exactly.
	if err := r.Insert(good.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := r.InsertAll([]Tuple{good.Clone(), bad}); err == nil {
		t.Fatal("bad tuple should error")
	}
	if r.Len() != 1 || !r.Tuple(0).Equal(good) {
		t.Errorf("rollback should restore the pre-call state, len = %d", r.Len())
	}
}

func TestInsertAllInvalidatesIndexes(t *testing.T) {
	r := paperFragment()
	q := NewQuery("cars", Eq("make", String("BMW")))
	if n := r.Count(q); n != 2 {
		t.Fatalf("precondition: %d BMWs", n)
	}
	// Count built an index; InsertAll must invalidate it.
	extra := []Tuple{
		{Int(7), String("BMW"), String("M3"), Int(2004), String("Coupe")},
		{Int(8), String("BMW"), String("M5"), Int(2005), String("Sedan")},
	}
	if err := r.InsertAll(extra); err != nil {
		t.Fatal(err)
	}
	if n := r.Count(q); n != 4 {
		t.Errorf("after InsertAll: %d BMWs, want 4 (stale index?)", n)
	}
}

func TestDistinctOn(t *testing.T) {
	r := paperFragment()
	base := r.Select(NewQuery("cars", Eq("body_style", String("Convt"))))
	d := DistinctOn(r.Schema, base, []string{"model"})
	if len(d) != 3 {
		t.Fatalf("distinct models = %d, want 3 (A4, Z4, Boxster)", len(d))
	}
	// Tuples with null on the projection attrs are skipped.
	r2 := paperFragment()
	r2.MustInsert(Tuple{Int(7), String("Ford"), Null(), Int(2001), String("Convt")})
	base2 := r2.Select(NewQuery("cars", Eq("body_style", String("Convt"))))
	d2 := DistinctOn(r2.Schema, base2, []string{"model"})
	if len(d2) != 3 {
		t.Errorf("null determining value should be skipped, got %d", len(d2))
	}
	// Duplicate combination collapses: two Z4 rows.
	d3 := DistinctOn(r.Schema, r.Tuples(), []string{"model"})
	if len(d3) != 5 {
		t.Errorf("distinct over all = %d, want 5", len(d3))
	}
}

func TestAggregateEval(t *testing.T) {
	r := paperFragment()
	q := NewQuery("cars", Eq("body_style", String("Convt")))
	q.Agg = &Aggregate{Func: AggCount}
	res, err := r.Aggregate(q)
	if err != nil || res.Value != 3 {
		t.Errorf("Count(*) = %v, %v", res.Value, err)
	}
	q.Agg = &Aggregate{Func: AggSum, Attr: "year"}
	res, err = r.Aggregate(q)
	if err != nil || res.Value != 2001+2002+2005 {
		t.Errorf("Sum(year) = %v, %v", res.Value, err)
	}
	q.Agg = &Aggregate{Func: AggAvg, Attr: "year"}
	res, err = r.Aggregate(q)
	if err != nil || res.Value != (2001+2002+2005)/3.0 {
		t.Errorf("Avg(year) = %v, %v", res.Value, err)
	}
	q.Agg = &Aggregate{Func: AggMin, Attr: "year"}
	res, _ = r.Aggregate(q)
	if res.Value != 2001 {
		t.Errorf("Min(year) = %v", res.Value)
	}
	q.Agg = &Aggregate{Func: AggMax, Attr: "year"}
	res, _ = r.Aggregate(q)
	if res.Value != 2005 {
		t.Errorf("Max(year) = %v", res.Value)
	}
	if _, err := r.Aggregate(NewQuery("cars")); err == nil {
		t.Error("Aggregate without Agg should error")
	}
}

func TestAggregateSkipsNulls(t *testing.T) {
	s := MustSchema(Attribute{"x", KindInt})
	r := New("r", s)
	r.MustInsert(Tuple{Int(10)})
	r.MustInsert(Tuple{Null()})
	r.MustInsert(Tuple{Int(20)})
	q := NewQuery("r")
	q.Agg = &Aggregate{Func: AggCount, Attr: "x"}
	res, _ := r.Aggregate(q)
	if res.Value != 2 {
		t.Errorf("Count(x) = %v, want 2 (null skipped)", res.Value)
	}
	q.Agg = &Aggregate{Func: AggCount}
	res, _ = r.Aggregate(q)
	if res.Value != 3 {
		t.Errorf("Count(*) = %v, want 3", res.Value)
	}
	q.Agg = &Aggregate{Func: AggAvg, Attr: "x"}
	res, _ = r.Aggregate(q)
	if res.Value != 15 {
		t.Errorf("Avg(x) = %v, want 15", res.Value)
	}
}

func TestAggregateMinMaxString(t *testing.T) {
	r := paperFragment()
	q := NewQuery("cars")
	q.Agg = &Aggregate{Func: AggMin, Attr: "make"}
	res, err := r.Aggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Extremum.Str() != "Audi" {
		t.Errorf("Min(make) = %v", res.Extremum)
	}
	q.Agg = &Aggregate{Func: AggSum, Attr: "make"}
	if _, err := r.Aggregate(q); err == nil {
		t.Error("Sum over strings should error")
	}
}

func TestDomain(t *testing.T) {
	r := paperFragment()
	d := r.Domain("body_style")
	if len(d) != 2 { // Convt, Sedan — null excluded
		t.Errorf("Domain(body_style) = %v", d)
	}
	if len(r.Domain("nope")) != 0 {
		t.Error("Domain of unknown attribute should be empty")
	}
}

func TestIncompleteAndNullFractions(t *testing.T) {
	r := paperFragment()
	if got := r.IncompleteFraction(); got != 2.0/6.0 {
		t.Errorf("IncompleteFraction = %v", got)
	}
	if got := r.NullFraction("body_style"); got != 2.0/6.0 {
		t.Errorf("NullFraction(body_style) = %v", got)
	}
	if got := r.NullFraction("make"); got != 0 {
		t.Errorf("NullFraction(make) = %v", got)
	}
	empty := New("e", carSchema())
	if empty.IncompleteFraction() != 0 || empty.NullFraction("make") != 0 {
		t.Error("empty relation fractions should be 0")
	}
}

func TestSample(t *testing.T) {
	r := paperFragment()
	rng := rand.New(rand.NewSource(1))
	s := r.Sample(3, rng)
	if s.Len() != 3 {
		t.Fatalf("Sample(3).Len = %d", s.Len())
	}
	// Sampled tuples exist in the original.
	for _, tu := range s.Tuples() {
		found := false
		for _, orig := range r.Tuples() {
			if tu.Equal(orig) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("sampled tuple %v not in original", tu)
		}
	}
	all := r.Sample(100, rng)
	if all.Len() != r.Len() {
		t.Errorf("oversample should clone: %d", all.Len())
	}
}

func TestClone(t *testing.T) {
	r := paperFragment()
	c := r.Clone()
	c.Tuple(0)[1] = String("Tesla")
	if r.Tuple(0)[1].Str() != "Audi" {
		t.Error("Clone should deep-copy tuples")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := paperFragment()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("cars", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema.Equal(r.Schema) {
		t.Fatalf("schema mismatch: %v vs %v", got.Schema, r.Schema)
	}
	if got.Len() != r.Len() {
		t.Fatalf("row count %d vs %d", got.Len(), r.Len())
	}
	for i := range r.Tuples() {
		if !got.Tuple(i).Equal(r.Tuple(i)) {
			t.Errorf("row %d: %v vs %v", i, got.Tuple(i), r.Tuple(i))
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV("x", bytes.NewBufferString("a:int\nnotanint\n")); err == nil {
		t.Error("bad int should error")
	}
	if _, err := ReadCSV("x", bytes.NewBufferString("a:banana\n1\n")); err == nil {
		t.Error("bad kind should error")
	}
	if _, err := ReadCSV("x", bytes.NewBufferString("")); err == nil {
		t.Error("empty input should error")
	}
}

func TestCSVDefaultsToString(t *testing.T) {
	r, err := ReadCSV("x", bytes.NewBufferString("a,b:int\nhello,5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema.Attr(0).Kind != KindString {
		t.Error("untyped column should default to string")
	}
	if r.Tuple(0)[1].IntVal() != 5 {
		t.Error("typed column decode failed")
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	r := paperFragment()
	path := t.TempDir() + "/cars.csv"
	if err := r.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCSV("cars", path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != r.Len() {
		t.Errorf("file round trip: %d rows, want %d", got.Len(), r.Len())
	}
}

func TestIndexStats(t *testing.T) {
	r := paperFragment()
	st, ok := r.IndexStats("body_style")
	if !ok {
		t.Fatal("body_style should have stats")
	}
	// Values: Convt ×3, Sedan ×1, null ×2.
	want := Stats{Rows: 6, Distinct: 2, Nulls: 2, MaxPosting: 3}
	if st != want {
		t.Errorf("IndexStats(body_style) = %+v, want %+v", st, want)
	}
	st, ok = r.IndexStats("model")
	if !ok {
		t.Fatal("model should have stats")
	}
	want = Stats{Rows: 6, Distinct: 5, Nulls: 0, MaxPosting: 2}
	if st != want {
		t.Errorf("IndexStats(model) = %+v, want %+v", st, want)
	}
	if _, ok := r.IndexStats("nope"); ok {
		t.Error("unknown attribute should report ok=false")
	}
}

func TestIndexStatsInvalidatedByInsert(t *testing.T) {
	r := paperFragment()
	before, _ := r.IndexStats("model")
	r.MustInsert(Tuple{Int(7), String("Ford"), String("F150"), Int(2003), Null()})
	after, _ := r.IndexStats("model")
	if after.Rows != before.Rows+1 || after.Distinct != before.Distinct+1 {
		t.Errorf("stats after insert = %+v (before %+v): index not rebuilt", after, before)
	}
}
