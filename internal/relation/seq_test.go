package relation

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// ---------- reference implementations (deliberately naive) ----------

// naiveSelect is the ground truth Scan must match: full scan, every
// predicate evaluated via Query.Matches, insertion order.
func naiveSelect(r *Relation, q Query) []Tuple {
	var out []Tuple
	for _, t := range r.Tuples() {
		if q.Matches(r.Schema, t) {
			out = append(out, t)
		}
	}
	return out
}

// naiveAggregate is the pre-iterator Aggregate.Apply accumulation loop,
// duplicated here verbatim so Fold is tested against an independent
// implementation (Apply itself now delegates to Fold).
func naiveAggregate(a Aggregate, s *Schema, tuples []Tuple) (AggResult, error) {
	if a.Func == AggCount && a.Attr == "" {
		return AggResult{Value: float64(len(tuples)), Rows: len(tuples)}, nil
	}
	idx, ok := s.Index(a.Attr)
	if !ok {
		return AggResult{}, errNoAttr
	}
	var (
		count int
		sum   float64
		ext   Value
	)
	numeric := true
	for _, t := range tuples {
		v := t[idx]
		if v.IsNull() {
			continue
		}
		count++
		if f, ok := v.Numeric(); ok {
			sum += f
		} else {
			numeric = false
		}
		if ext.IsNull() {
			ext = v
			continue
		}
		c, ok := v.Compare(ext)
		if !ok {
			continue
		}
		switch a.Func {
		case AggMin:
			if c < 0 {
				ext = v
			}
		case AggMax:
			if c > 0 {
				ext = v
			}
		}
	}
	res := AggResult{Rows: count, Extremum: ext}
	switch a.Func {
	case AggCount:
		res.Value = float64(count)
	case AggSum:
		if !numeric {
			return res, errNonNumeric
		}
		res.Value = sum
	case AggAvg:
		if !numeric {
			return res, errNonNumeric
		}
		if count == 0 {
			res.Value = nan()
		} else {
			res.Value = sum / float64(count)
		}
	case AggMin, AggMax:
		if f, ok := ext.Numeric(); ok {
			res.Value = f
		} else {
			res.Value = nan()
		}
	}
	return res, nil
}

var (
	errNoAttr     = fmt.Errorf("no attribute")
	errNonNumeric = fmt.Errorf("non-numeric")
)

func nan() float64 { return math.NaN() }

func sameTuples(t *testing.T, got, want []Tuple, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: tuple %d = %v, want %v (order matters)", label, i, got[i], want[i])
		}
	}
}

// ---------- random relation / query generation ----------

var propSchema = MustSchema(
	Attribute{Name: "id", Kind: KindInt},
	Attribute{Name: "make", Kind: KindString},
	Attribute{Name: "price", Kind: KindFloat},
	Attribute{Name: "year", Kind: KindInt},
	Attribute{Name: "used", Kind: KindBool},
)

func randomRelation(rng *rand.Rand, n int) *Relation {
	makes := []string{"Audi", "BMW", "Honda", ""}
	r := New("prop", propSchema)
	for i := 0; i < n; i++ {
		t := Tuple{
			Int(int64(i)),
			String(makes[rng.Intn(len(makes))]),
			Float(float64(rng.Intn(5)) * 1000), // small domain: collisions
			Int(int64(2000 + rng.Intn(6))),
			Bool(rng.Intn(2) == 0),
		}
		// Sprinkle nulls everywhere but the id.
		for c := 1; c < len(t); c++ {
			if rng.Float64() < 0.15 {
				t[c] = Null()
			}
		}
		r.MustInsert(t)
	}
	return r
}

func randomQuery(rng *rand.Rand) Query {
	attrs := []string{"make", "price", "year", "used", "nosuch"}
	q := NewQuery("prop")
	for np := rng.Intn(4); np > 0; np-- {
		attr := attrs[rng.Intn(len(attrs))]
		var p Predicate
		switch rng.Intn(8) {
		case 0:
			p = IsNull(attr)
		case 1:
			p = Predicate{Attr: attr, Op: OpNotNull}
		case 2:
			p = Predicate{Attr: attr, Op: OpNe, Value: Int(int64(2000 + rng.Intn(6)))}
		case 3:
			p = Predicate{Attr: attr, Op: OpLt, Value: Float(float64(rng.Intn(5)) * 1000)}
		case 4:
			p = Between(attr, Int(int64(1000*rng.Intn(3))), Int(int64(1000*(2+rng.Intn(3)))))
		case 5:
			// The cross-kind probe: an int constant against the float
			// price column (and sometimes a float against int year).
			if rng.Intn(2) == 0 {
				p = Eq("price", Int(int64(rng.Intn(5))*1000))
			} else {
				p = Eq("year", Float(float64(2000+rng.Intn(6))))
			}
		case 6:
			// Equality against null: matches nothing, must stay empty.
			p = Eq(attr, Null())
		default:
			switch attr {
			case "make":
				p = Eq(attr, String([]string{"Audi", "BMW", "Honda", "Nope"}[rng.Intn(4)]))
			case "price":
				p = Eq(attr, Float(float64(rng.Intn(5))*1000))
			case "used":
				p = Eq(attr, Bool(rng.Intn(2) == 0))
			default:
				p = Eq(attr, Int(int64(2000+rng.Intn(6))))
			}
		}
		q = q.With(p)
	}
	return q
}

// ---------- lazy-vs-materialized equivalence ----------

func TestScanEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 300; trial++ {
		r := randomRelation(rng, rng.Intn(120))
		// Random index state: pre-warm some attribute indexes before the
		// query under test, sometimes invalidate them with an extra insert.
		for w := rng.Intn(3); w > 0; w-- {
			r.Count(NewQuery("prop", Eq("make", String("Audi"))))
			r.Count(NewQuery("prop", Eq("year", Int(2003))))
		}
		if rng.Intn(4) == 0 && r.Len() > 0 {
			r.MustInsert(r.Tuple(0).Clone())
		}
		q := randomQuery(rng)
		want := naiveSelect(r, q)
		sameTuples(t, r.Select(q), want, "Select vs naive ("+q.String()+")")
		if got := r.Scan(q).Collect(); len(got) != len(want) {
			t.Fatalf("Scan.Collect: %d tuples, want %d for %s", len(got), len(want), q)
		}
		if n := r.Count(q); n != len(want) {
			t.Fatalf("Count = %d, want %d for %s", n, len(want), q)
		}
	}
}

func FuzzScanEquivalence(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(42), int64(61))
	f.Add(int64(-7), int64(0))
	f.Fuzz(func(t *testing.T, relSeed, qSeed int64) {
		r := randomRelation(rand.New(rand.NewSource(relSeed)), 60)
		qrng := rand.New(rand.NewSource(qSeed))
		for i := 0; i < 8; i++ {
			q := randomQuery(qrng)
			sameTuples(t, r.Select(q), naiveSelect(r, q), "fuzz "+q.String())
		}
	})
}

// TestScanCrossKindProbe is the regression for the index-probe kind bug:
// Value.Key is kind-sensitive while Predicate.Matches compares numerics
// across kinds, so an int constant probing a float column's hash index used
// to land on a missing key and return a falsely empty result.
func TestScanCrossKindProbe(t *testing.T) {
	r := New("cars", propSchema)
	r.MustInsert(Tuple{Int(1), String("Audi"), Float(3000), Int(2001), Bool(true)})
	r.MustInsert(Tuple{Int(2), String("BMW"), Float(3000), Int(2002), Bool(false)})
	r.MustInsert(Tuple{Int(3), String("BMW"), Float(4000), Int(2003), Bool(false)})

	// Build the indexes first so the probe path (not the fallback full
	// scan) answers the cross-kind queries.
	r.Count(NewQuery("cars", Eq("price", Float(0))))
	r.Count(NewQuery("cars", Eq("year", Int(0))))

	if n := r.Count(NewQuery("cars", Eq("price", Int(3000)))); n != 2 {
		t.Errorf("int constant on float column: %d matches, want 2", n)
	}
	if n := r.Count(NewQuery("cars", Eq("year", Float(2002)))); n != 1 {
		t.Errorf("float constant on int column: %d matches, want 1", n)
	}
	if n := r.Count(NewQuery("cars", Eq("year", Float(2002.5)))); n != 0 {
		t.Errorf("non-integral float on int column: %d matches, want 0", n)
	}
	if n := r.Count(NewQuery("cars", Eq("make", Int(1)))); n != 0 {
		t.Errorf("int constant on string column: %d matches, want 0", n)
	}
	if n := r.Count(NewQuery("cars", Eq("price", Null()))); n != 0 {
		t.Errorf("equality against null: %d matches, want 0", n)
	}

	// Keys and Equal disagree on two floats: -0 and +0 are keyed apart
	// but Equal, and every NaN shares one key but equals nothing. So a
	// zero constant must not drive the scan, and a NaN matches nothing.
	negZero := math.Copysign(0, -1)
	r.MustInsert(Tuple{Int(4), String("BMW"), Float(negZero), Int(2004), Bool(true)})
	r.MustInsert(Tuple{Int(5), String("BMW"), Float(0), Int(2005), Bool(true)})
	r.MustInsert(Tuple{Int(6), String("Honda"), Float(math.NaN()), Int(2006), Bool(false)})
	zeroAndNaN := []struct {
		name string
		q    Query
		want int
	}{
		{"price = 0", NewQuery("cars", Eq("price", Float(0))), 2},
		{"price = -0", NewQuery("cars", Eq("price", Float(negZero))), 2},
		{"price = int 0", NewQuery("cars", Eq("price", Int(0))), 2},
		{"price = NaN", NewQuery("cars", Eq("price", Float(math.NaN()))), 0},
		{"make = BMW and price = 0", NewQuery("cars", Eq("make", String("BMW")), Eq("price", Float(0))), 2},
		{"make = Honda and price = NaN", NewQuery("cars", Eq("make", String("Honda")), Eq("price", Float(math.NaN()))), 0},
	}
	for _, c := range zeroAndNaN {
		want := 0
		for _, tu := range r.Tuples() {
			if c.q.Matches(r.Schema, tu) {
				want++
			}
		}
		if want != c.want {
			t.Fatalf("%s: Matches accepts %d tuples, want %d", c.name, want, c.want)
		}
		if n := r.Count(c.q); n != c.want {
			t.Errorf("%s: %d matches, want %d", c.name, n, c.want)
		}
	}
}

func TestFoldMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	aggs := []Aggregate{
		{Func: AggCount},
		{Func: AggCount, Attr: "price"},
		{Func: AggSum, Attr: "price"},
		{Func: AggAvg, Attr: "price"},
		{Func: AggMin, Attr: "make"},
		{Func: AggMax, Attr: "make"},
		{Func: AggMin, Attr: "year"},
		{Func: AggMax, Attr: "year"},
		{Func: AggSum, Attr: "make"}, // error path: Sum over strings
		{Func: AggAvg, Attr: "nosuch"},
	}
	for trial := 0; trial < 50; trial++ {
		r := randomRelation(rng, rng.Intn(60))
		for _, a := range aggs {
			want, werr := naiveAggregate(a, r.Schema, r.Tuples())
			got, gerr := a.Fold(r.Schema, r.All())
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s: Fold err=%v, Apply err=%v", a, gerr, werr)
			}
			if werr != nil {
				continue
			}
			// NaN != NaN: compare via string-insensitive identity.
			if got.Rows != want.Rows || !floatsIdentical(got.Value, want.Value) || !got.Extremum.Identical(want.Extremum) {
				t.Fatalf("%s: Fold %+v, Apply %+v", a, got, want)
			}
		}
	}
}

func floatsIdentical(a, b float64) bool {
	return a == b || (a != a && b != b) // both NaN
}

func TestDistinctOnSeqEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	attrSets := [][]string{{"make"}, {"make", "year"}, {"price", "used"}, {"make", "nosuch"}}
	for trial := 0; trial < 40; trial++ {
		r := randomRelation(rng, rng.Intn(80))
		for _, attrs := range attrSets {
			want := DistinctOn(r.Schema, r.Tuples(), attrs)
			got := DistinctOnSeq(r.Schema, r.All(), attrs).Collect()
			sameTuples(t, got, want, "DistinctOnSeq")
		}
	}
}

// ---------- early close ----------

func TestTakeStopsPulling(t *testing.T) {
	r := randomRelation(rand.New(rand.NewSource(3)), 100)
	pulled := 0
	counted := r.All().Map(func(t Tuple) Tuple { pulled++; return t }).Take(5).Count()
	if counted != 5 {
		t.Fatalf("Take(5).Count() = %d", counted)
	}
	if pulled != 5 {
		t.Errorf("upstream pulled %d tuples after Take(5); early close should stop the pipeline", pulled)
	}
	// Breaking a range loop closes the whole chain too.
	pulled = 0
	for range r.Scan(Query{}).Map(func(t Tuple) Tuple { pulled++; return t }) {
		break
	}
	if pulled != 1 {
		t.Errorf("break after first tuple still pulled %d", pulled)
	}
}

// ---------- ownership regressions ----------

// TestSampleDoesNotAliasStore is the regression for Sample sharing Tuple
// backing arrays with the live relation: a sampled world that gets mutated
// (eval's MakeIncomplete nulling attributes) must never write through.
func TestSampleDoesNotAliasStore(t *testing.T) {
	r := randomRelation(rand.New(rand.NewSource(5)), 30)
	orig := r.Clone()
	for _, n := range []int{10, 30, 50} { // below, at, above Len
		s := r.Sample(n, rand.New(rand.NewSource(9)))
		for i := 0; i < s.Len(); i++ {
			tu := s.Tuple(i)
			for c := range tu {
				tu[c] = Null()
			}
		}
		for i := 0; i < r.Len(); i++ {
			if !r.Tuple(i).Equal(orig.Tuple(i)) {
				t.Fatalf("Sample(%d): mutating the sample corrupted source tuple %d", n, i)
			}
		}
	}
}

func TestCoerceDoesNotMutateOnError(t *testing.T) {
	r := New("prop", propSchema)
	// price is an int that would coerce to float, but `used` fails
	// validation afterwards: the caller's tuple must come back untouched.
	bad := Tuple{Int(1), String("Audi"), Int(3000), Int(2001), String("oops")}
	if err := r.Insert(bad); err == nil {
		t.Fatal("insert should fail on the bool column")
	}
	if bad[2].Kind() != KindInt {
		t.Errorf("price was half-coerced to %s on a failed insert", bad[2].Kind())
	}
}

// ---------- concurrency ----------

// TestConcurrentSelectDuringFirstIndexBuild exercises the indexed-atomic /
// mutex handoff: many goroutines Select concurrently right after a bulk
// load, so the first index and column builds race with other readers (run
// under -race). Each goroutine starts at a different query, so different
// attributes' first builds overlap.
func TestConcurrentSelectDuringFirstIndexBuild(t *testing.T) {
	for round := 0; round < 10; round++ {
		r := randomRelation(rand.New(rand.NewSource(int64(round))), 500)
		queries := []Query{
			NewQuery("prop", Eq("make", String("BMW"))),
			NewQuery("prop", Eq("year", Int(2003))),
			NewQuery("prop", IsNull("price")),
			NewQuery("prop", Eq("price", Int(2000))), // cross-kind probe
			NewQuery("prop"),
			// Non-drive predicates compiled to column tests, numeric
			// ranges on an int and a float column, beside fallback ops.
			NewQuery("prop", IsNull("price"), Predicate{Attr: "make", Op: OpNe, Value: String("BMW")},
				Between("year", Int(2001), Int(2004))),
			NewQuery("prop", Eq("make", String("Audi")), Predicate{Attr: "price", Op: OpLe, Value: Int(3000)},
				Predicate{Attr: "used", Op: OpNe, Value: Bool(true)}),
			// An int equality and a string equality that the id posting
			// list, of one tuple, leaves to be tested per tuple.
			NewQuery("prop", Eq("id", Int(int64(7*round))), Eq("year", Int(2003)), Eq("make", String("BMW"))),
			NewQuery("prop", Predicate{Attr: "year", Op: OpGe, Value: Int(2002)}, Predicate{Attr: "price", Op: OpLe, Value: Int(2000)}),
		}
		want := make([]int, len(queries))
		for i, q := range queries {
			want[i] = len(naiveSelect(r, q))
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range queries {
					i := (g + k) % len(queries)
					if n := r.Count(queries[i]); n != want[i] {
						t.Errorf("goroutine %d: Count(%s) = %d, want %d", g, queries[i], n, want[i])
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
