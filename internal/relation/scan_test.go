package relation

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// ---------- edge values through the compiled scan ----------

// edgeSchema has one attribute of each kind a scan test compiles against
// (int, float, string) plus a bool, whose predicates take the fallback.
var edgeSchema = MustSchema(
	Attribute{Name: "id", Kind: KindInt},
	Attribute{Name: "n", Kind: KindInt},
	Attribute{Name: "f", Kind: KindFloat},
	Attribute{Name: "s", Kind: KindString},
	Attribute{Name: "b", Kind: KindBool},
)

const twoTo53 = 1 << 53

var (
	negZero   = math.Copysign(0, -1)
	edgeInts  = []Value{Null(), Int(0), Int(-1), Int(1), Int(2000), Int(twoTo53), Int(twoTo53 + 1), Int(twoTo53 - 1), Int(-twoTo53 - 1), Int(math.MinInt64), Int(math.MaxInt64)}
	edgeFloat = []Value{Null(), Float(math.NaN()), Float(negZero), Float(0), Float(1.5), Float(-1.5), Float(2000), Float(twoTo53), Float(twoTo53 + 2), Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.MaxFloat64)}
	edgeStrs  = []Value{Null(), String(""), String("0"), String("-0"), String("1.5"), String("NaN"), String("2000"), String("9007199254740993"), String("a"), String("A")}
	edgeBools = []Value{Null(), Bool(true), Bool(false)}
	// edgeConsts are the query constants: every stored cell above, of
	// every kind, plus strings and numbers no row holds.
	edgeConsts = append(append(append(append([]Value{String("absent"), Int(3), Float(2000.5), Float(twoTo53 + 1)},
		edgeInts...), edgeFloat...), edgeStrs...), edgeBools...)
	edgeOps = []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpBetween, OpIsNull, OpNotNull, Op(99)}
)

// edgeRelation draws n rows whose cells are edge values: null, NaN, ±0,
// ±Inf, 2^53 and 2^53+1, MinInt64 and MaxInt64, "", numeric-looking
// strings. A third of attribute n's cells are 2^53 or 2^53+1, which
// share one float64, so an equality on n that does not drive the scan
// often meets both.
func edgeRelation(rng *rand.Rand, n int) *Relation {
	r := New("edge", edgeSchema)
	pick := func(vs []Value) Value { return vs[rng.Intn(len(vs))] }
	for i := 0; i < n; i++ {
		ni := pick(edgeInts)
		if rng.Intn(3) == 0 {
			ni = Int(twoTo53 + rng.Int63n(2))
		}
		r.MustInsert(Tuple{Int(int64(i)), ni, pick(edgeFloat), pick(edgeStrs), pick(edgeBools)})
	}
	return r
}

// edgeQuery draws a conjunction of up to four predicates, each with any
// op and constants of any kind, so ranges are crossed (lo > hi) about
// half the time. A third of the ops are =, and half the constants come
// from the attribute's own cells, so several equalities often hit stored
// values and all but the rarest are tested per tuple.
func edgeQuery(rng *rand.Rand) Query {
	attrs := []string{"id", "n", "f", "s", "b", "nosuch"}
	pools := [][]Value{edgeInts, edgeInts, edgeFloat, edgeStrs, edgeBools, edgeConsts}
	q := NewQuery("edge")
	for np := 1 + rng.Intn(4); np > 0; np-- {
		a := rng.Intn(len(attrs))
		pick := func() Value {
			pool := edgeConsts
			if rng.Intn(2) == 0 {
				pool = pools[a]
			}
			return pool[rng.Intn(len(pool))]
		}
		op := edgeOps[rng.Intn(len(edgeOps))]
		if rng.Intn(3) == 0 {
			op = OpEq
		}
		q.Preds = append(q.Preds, Predicate{Attr: attrs[a], Op: op, Value: pick(), High: pick()})
	}
	return q
}

// warmEdge builds every index and every column a scan of the edge schema
// can use, and checks they were built.
func warmEdge(t *testing.T, r *Relation) {
	t.Helper()
	for _, attr := range []string{"id", "n", "f", "s", "b"} {
		r.Count(NewQuery("edge", IsNull(attr)))
	}
	// Every attribute but the bool has a column some compiled test reads.
	for col := 0; col < 4; col++ {
		r.column(col)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.indexes) != 5 || slices.Contains(r.columns[:4], nil) {
		t.Fatalf("warm-up built %d indexes and columns %v", len(r.indexes), r.columns)
	}
}

// checkEdgeQuery compares Select and Count against naiveSelect, which
// evaluates every predicate with Query.Matches, hence Predicate.Holds.
// Rows are compared by id: Tuple.Equal fails on a NaN cell.
func checkEdgeQuery(t *testing.T, r *Relation, q Query, state string) {
	t.Helper()
	got, want := r.Select(q), naiveSelect(r, q)
	if len(got) != len(want) {
		t.Fatalf("%s %s: Select %d rows, want %d", state, q, len(got), len(want))
	}
	for i := range got {
		if got[i][0].IntVal() != want[i][0].IntVal() {
			t.Fatalf("%s %s: row %d has id %v, want %v", state, q, i, got[i][0], want[i][0])
		}
	}
	if n := r.Count(q); n != len(want) {
		t.Fatalf("%s %s: Count = %d, want %d", state, q, n, len(want))
	}
	// A predicate that drives the scan is not tested per tuple, so also
	// check each compiled test on every row.
	for i := range q.Preds {
		p := &q.Preds[i]
		col, ok := r.Schema.Index(p.Attr)
		if !ok {
			continue
		}
		test, ok := r.compileTest(p)
		for pos, tu := range r.Tuples() {
			if got := ok && test.holds(r.Tuples(), pos); got != p.Holds(tu[col]) {
				t.Fatalf("%s %s: compiled test on row %d (%v) = %v, Holds says %v", state, p, pos, tu[col], got, !got)
			}
		}
	}
}

// TestScanEdgeValues runs random edge queries against a relation with
// nothing built, then with every index and column built, then after an
// insert has invalidated them.
func TestScanEdgeValues(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 200; trial++ {
		r := edgeRelation(rng, 20+rng.Intn(60))
		queries := make([]Query, 10)
		for i := range queries {
			queries[i] = edgeQuery(rng)
		}
		for _, q := range queries {
			checkEdgeQuery(t, r.Clone(), q, "cold")
		}
		warmEdge(t, r)
		for _, q := range queries {
			checkEdgeQuery(t, r, q, "warm")
		}
		r.MustInsert(Tuple{Int(int64(r.Len())), Int(twoTo53 + 1), Float(math.NaN()), String("a"), Bool(true)})
		for _, q := range queries {
			checkEdgeQuery(t, r, q, "invalidated")
		}
	}
}

func FuzzScanEdgeValues(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(71), int64(72))
	f.Add(int64(-3), int64(0))
	f.Fuzz(func(t *testing.T, relSeed, qSeed int64) {
		r := edgeRelation(rand.New(rand.NewSource(relSeed)), 60)
		qrng := rand.New(rand.NewSource(qSeed))
		queries := make([]Query, 8)
		for i := range queries {
			queries[i] = edgeQuery(qrng)
			checkEdgeQuery(t, r.Clone(), queries[i], "cold")
		}
		warmEdge(t, r)
		for _, q := range queries {
			checkEdgeQuery(t, r, q, "warm")
		}
	})
}

// TestScanCompiledCases pins the compiled tests' answers where they could
// part from Predicate.Holds: NaN cells, signed zeros, ints past 2^53,
// string constants missing from the dictionary and null constants. Each
// case is checked three ways: Matches, Count, and each predicate's
// compiled test on every row, since an equality may drive the scan
// instead of being tested.
func TestScanCompiledCases(t *testing.T) {
	r := New("edge", edgeSchema)
	for _, tu := range []Tuple{
		{Int(0), Int(twoTo53), Float(math.NaN()), String("a"), Bool(true)},
		{Int(1), Int(twoTo53 + 1), Float(negZero), String("b"), Bool(true)},
		{Int(2), Null(), Float(0), Null(), Bool(true)},
		{Int(3), Int(0), Null(), String(""), Bool(true)},
	} {
		r.MustInsert(tu)
	}
	one := func(p Predicate) Query { return NewQuery("edge", p) }
	cases := []struct {
		q    Query
		want int
	}{
		{one(Between("f", Int(1), Int(0))), 1},                              // crossed range: only NaN passes
		{one(Between("f", Int(0), Int(0))), 3},                              // ±0 and NaN
		{one(Predicate{Attr: "f", Op: OpLe, Value: Int(-5)}), 1},            // NaN again
		{one(Predicate{Attr: "f", Op: OpGe, Value: Float(negZero)}), 3},     // -0 = +0, and NaN
		{one(Predicate{Attr: "n", Op: OpGe, Value: Float(math.NaN())}), 3},  // every number >= NaN
		{one(Between("n", Int(twoTo53), Int(twoTo53))), 2},                  // 2^53+1 rounds to 2^53
		{one(Eq("n", Int(twoTo53))), 1},                                     // but = stays exact
		{one(Eq("n", Int(0))), 1},                                           // a null row is not 0
		{one(Predicate{Attr: "n", Op: OpGe, Value: Int(math.MinInt64)}), 3}, // MinInt64 is exact in float64
		{one(Predicate{Attr: "n", Op: OpLe, Value: Int(math.MaxInt64)}), 3}, // MaxInt64 rounds to 2^63
		{one(Eq("s", String("absent"))), 0},                                 // absent from the dictionary
		{one(Predicate{Attr: "s", Op: OpNe, Value: Null()}), 0},             // unknown, as = NULL
		{one(Predicate{Attr: "n", Op: OpNe, Value: Null()}), 0},             // unknown, as = NULL
		{one(Between("n", Int(0), Null())), 0},                              // null bound
		{one(Predicate{Attr: "f", Op: OpLt, Value: Float(math.Inf(1))}), 2}, // fallback: ±0, not NaN
		{one(Predicate{Attr: "s", Op: OpNe, Value: String("")}), 2},         // fallback: null rows fail
		{one(Predicate{Attr: "n", Op: OpLt, Value: String("z")}), 0},        // fallback: incomparable
		{one(Predicate{Attr: "b", Op: OpNe, Value: Bool(false)}), 4},        // fallback: bool
		{one(Predicate{Attr: "n", Op: Op(99), Value: Int(twoTo53)}), 0},     // unknown op
		// s = 'a' drives, so != NULL is compiled and tested on its row.
		{NewQuery("edge", Eq("s", String("a")), Predicate{Attr: "n", Op: OpNe, Value: Null()}), 0},
	}
	for _, c := range cases {
		if n := len(naiveSelect(r, c.q)); n != c.want {
			t.Fatalf("%s: Matches accepts %d rows, want %d", c.q, n, c.want)
		}
		if n := r.Count(c.q); n != c.want {
			t.Errorf("%s: Count = %d, want %d", c.q, n, c.want)
		}
		for i := range c.q.Preds {
			p := &c.q.Preds[i]
			test, ok := r.compileTest(p)
			for pos, tu := range r.Tuples() {
				if got := ok && test.holds(r.Tuples(), pos); got != p.Matches(r.Schema, tu) {
					t.Errorf("%s: compiled test on row %d = %v, Holds says %v", p, pos, got, !got)
				}
			}
		}
	}
}
