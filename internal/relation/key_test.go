package relation

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The ref* functions are the canonical keys as they were built by string
// concatenation before the append forms existed. Keys feed memo lookups,
// dedupe and the rewrite tie-break order, so the append-built keys must
// stay byte-identical to these.

func refValueKey(v Value) string {
	switch v.kind {
	case KindNull:
		return "\x00"
	case KindString:
		return "s" + v.s
	case KindInt:
		return "i" + strconv.FormatInt(v.IntVal(), 10)
	case KindFloat:
		return "f" + strconv.FormatFloat(v.FloatVal(), 'g', -1, 64)
	case KindBool:
		if v.BoolVal() {
			return "bt"
		}
		return "bf"
	}
	return ""
}

func refTupleKey(t Tuple) string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(refValueKey(v))
	}
	return b.String()
}

func refTupleKeyOn(t Tuple, cols []int) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(refValueKey(t[c]))
	}
	return b.String()
}

func refQueryKey(q Query) string {
	parts := make([]string, 0, len(q.Preds)+2)
	parts = append(parts, q.Relation)
	ps := make([]string, len(q.Preds))
	for i, p := range q.Preds {
		ps[i] = p.Attr + "\x1e" + p.Op.String() + "\x1e" + refValueKey(p.Value) + "\x1e" + refValueKey(p.High)
	}
	sort.Strings(ps)
	parts = append(parts, ps...)
	if q.Agg != nil {
		parts = append(parts, q.Agg.String())
	}
	return strings.Join(parts, "\x1f")
}

// keyEdgeValues covers every kind, null, and the payloads whose encodings
// are easiest to get wrong: separator bytes inside strings, integer
// extremes, signed zeros, NaN, infinities and the float exponent switch.
func keyEdgeValues() []Value {
	return []Value{
		Null(),
		String(""), String("Honda"), String("\x00"), String("\x1e"), String("\x1f"),
		String("a\x1fb\x1ec"), String(strings.Repeat("long", 40)), String("ü€"),
		Int(0), Int(-1), Int(1), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()),
		Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(math.MaxFloat64), Float(-math.MaxFloat64), Float(math.SmallestNonzeroFloat64),
		Float(1e21), Float(1e20), Float(1e-7), Float(0.1), Float(1),
		Bool(true), Bool(false),
	}
}

func TestValueKeyMatchesReference(t *testing.T) {
	for _, v := range keyEdgeValues() {
		want := refValueKey(v)
		if got := v.Key(); got != want {
			t.Errorf("%#v: Key = %q, want %q", v, got, want)
		}
		if got := string(v.AppendKey([]byte("prefix"))); got != "prefix"+want {
			t.Errorf("%#v: AppendKey onto prefix = %q, want %q", v, got, "prefix"+want)
		}
	}
}

// KeyEqual must agree with comparing keys, and values with equal keys must
// fold into KeyHash identically, whatever the running hash.
func TestKeyEqualAndHashMatchKey(t *testing.T) {
	vals := append(keyEdgeValues(),
		Float(math.Float64frombits(0x7ff8000000000001)), // NaNs with other payloads
		Float(math.Float64frombits(0xfff0000000000001)),
		Int(1<<56), Float(math.Float64frombits(1<<56)), // same payload word, other kinds
	)
	checkKeyEqualAndHash(t, vals)
}

func checkKeyEqualAndHash(t *testing.T, vals []Value) {
	t.Helper()
	for _, a := range vals {
		for _, b := range vals {
			want := a.Key() == b.Key()
			if got := a.KeyEqual(b); got != want {
				t.Fatalf("%#v.KeyEqual(%#v) = %v, keys %q and %q", a, b, got, a.Key(), b.Key())
			}
			if !want {
				continue
			}
			for _, h := range []uint64{0, 1, 0x9e3779b97f4a7c15} {
				if a.KeyHash(h) != b.KeyHash(h) {
					t.Fatalf("%#v and %#v share key %q but KeyHash(%#x) differs", a, b, a.Key(), h)
				}
			}
		}
	}
}

func TestTupleKeyMatchesReference(t *testing.T) {
	vals := keyEdgeValues()
	tuples := []Tuple{
		{},
		{Null()},
		{String("")},
		Tuple(vals),
		{String("a\x1f"), String("b")},
		{String("a"), String("\x1fb")},
		{Int(2004), Null(), Float(math.NaN()), String("Convt")},
	}
	for _, tp := range tuples {
		if got, want := tp.Key(), refTupleKey(tp); got != want {
			t.Errorf("%v: Key = %q, want %q", tp, got, want)
		}
		if got, want := string(tp.AppendKey([]byte{'x'})), "x"+refTupleKey(tp); got != want {
			t.Errorf("%v: AppendKey = %q, want %q", tp, got, want)
		}
	}
	all := Tuple(vals)
	for _, cols := range [][]int{nil, {0}, {3, 1}, {5, 5, 5}, {len(all) - 1, 0, 12, 16}} {
		if got, want := all.KeyOn(cols), refTupleKeyOn(all, cols); got != want {
			t.Errorf("KeyOn(%v) = %q, want %q", cols, got, want)
		}
		if got, want := string(all.AppendKeyOn([]byte{'x'}, cols)), "x"+refTupleKeyOn(all, cols); got != want {
			t.Errorf("AppendKeyOn(%v) = %q, want %q", cols, got, want)
		}
	}
}

// keyOps lists every operator plus one out of range, whose String form
// goes through fmt.
var keyOps = []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpBetween, OpIsNull, OpNotNull, Op(99)}

func TestQueryKeyMatchesReference(t *testing.T) {
	vals := keyEdgeValues()
	var preds []Predicate
	for i, op := range keyOps {
		preds = append(preds, Predicate{
			Attr:  []string{"make", "model", "", "a\x1eb", "make"}[i%5],
			Op:    op,
			Value: vals[(3*i)%len(vals)],
			High:  vals[(5*i+1)%len(vals)],
		})
	}
	aggs := []*Aggregate{nil, {Func: AggCount}, {Func: AggAvg, Attr: "price"}, {Func: AggFunc(77), Attr: "x"}}
	for _, agg := range aggs {
		for n := 0; n <= len(preds); n++ {
			q := Query{Relation: "cars", Preds: append([]Predicate(nil), preds[:n]...), Agg: agg}
			want := refQueryKey(q)
			if got := q.Key(); got != want {
				t.Fatalf("%d preds, agg %v: Key = %q, want %q", n, agg, got, want)
			}
			// Every rotation and the reversal name the same query.
			for r := 1; r < n; r++ {
				rot := Query{Relation: q.Relation, Agg: agg}
				rot.Preds = append(append(rot.Preds, q.Preds[r:]...), q.Preds[:r]...)
				if got := rot.Key(); got != want {
					t.Fatalf("rotation %d of %d preds: Key = %q, want %q", r, n, got, want)
				}
			}
			rev := Query{Relation: q.Relation, Agg: agg}
			for i := n - 1; i >= 0; i-- {
				rev.Preds = append(rev.Preds, q.Preds[i])
			}
			if got := rev.Key(); got != want {
				t.Fatalf("reversed %d preds: Key = %q, want %q", n, got, want)
			}
		}
	}
	// More predicates than the span buffer holds, with long encodings that
	// outgrow the byte buffer.
	var many []Predicate
	for i := 0; i < 40; i++ {
		many = append(many, Eq(strings.Repeat("attr", 10)+strconv.Itoa(39-i), String(strings.Repeat("v", i))))
	}
	q := Query{Relation: "r", Preds: many}
	if got, want := q.Key(), refQueryKey(q); got != want {
		t.Fatalf("40 preds: Key = %q, want %q", got, want)
	}
}

// FuzzKeyEncoding checks the append-built value, tuple and query keys
// against the concatenating references on arbitrary payloads.
func FuzzKeyEncoding(f *testing.F) {
	f.Add("Honda", "", int64(2004), 1.5, true, uint8(0), uint16(0))
	f.Add("\x1f", "\x1e\x00", int64(math.MinInt64), math.NaN(), false, uint8(0x5a), uint16(0x1234))
	f.Add("", "a\x1fb", int64(math.MaxInt64), math.Inf(-1), true, uint8(0xff), uint16(0xffff))
	f.Add("x", "x", int64(-1), math.Copysign(0, -1), false, uint8(7), uint16(0x0807))
	f.Add("ü", "\xff", int64(0), 1e21, true, uint8(0x80), uint16(0x8000))
	f.Fuzz(func(t *testing.T, s1, s2 string, i int64, fl float64, b bool, pick uint8, ops uint16) {
		vals := []Value{Null(), String(s1), String(s2), Int(i), Float(fl), Bool(b)}
		checkKeyEqualAndHash(t, vals)
		for _, v := range vals {
			if got, want := v.Key(), refValueKey(v); got != want {
				t.Fatalf("%#v: Key = %q, want %q", v, got, want)
			}
			if got, want := string(v.AppendKey([]byte(s2))), s2+refValueKey(v); got != want {
				t.Fatalf("%#v: AppendKey = %q, want %q", v, got, want)
			}
		}
		// A tuple of the values rotated by pick, keyed whole and on the
		// columns pick's bits select.
		r := int(pick) % len(vals)
		tp := append(append(Tuple(nil), vals[r:]...), vals[:r]...)
		if got, want := tp.Key(), refTupleKey(tp); got != want {
			t.Fatalf("%v: Key = %q, want %q", tp, got, want)
		}
		var cols []int
		for c := range tp {
			if pick&(1<<c) != 0 {
				cols = append(cols, c, (c+r)%len(tp))
			}
		}
		if got, want := tp.KeyOn(cols), refTupleKeyOn(tp, cols); got != want {
			t.Fatalf("KeyOn(%v) = %q, want %q", cols, got, want)
		}
		// A query of four predicates whose operators come from ops' nibbles
		// and whose attributes and bounds come from the payloads.
		q := Query{Relation: s1}
		for j := 0; j < 4; j++ {
			q.Preds = append(q.Preds, Predicate{
				Attr:  []string{s1, s2}[j%2],
				Op:    keyOps[int(ops>>(4*j)&0xf)%len(keyOps)],
				Value: vals[(r+j)%len(vals)],
				High:  vals[(r+2*j+1)%len(vals)],
			})
		}
		if b {
			q.Agg = &Aggregate{Func: AggSum, Attr: s2}
		}
		want := refQueryKey(q)
		if got := q.Key(); got != want {
			t.Fatalf("Key = %q, want %q", got, want)
		}
		q.Preds[0], q.Preds[3] = q.Preds[3], q.Preds[0]
		if got := q.Key(); got != want {
			t.Fatalf("swapped predicates: Key = %q, want %q", got, want)
		}
	})
}

// The request path appends keys into a reused buffer and looks maps up
// with m[string(buf)]; neither step may allocate once the buffer has grown.
func TestAppendKeyAllocations(t *testing.T) {
	tp := Tuple{Int(4711), String("Honda"), String("Civic"), Int(2004), Float(14250.5), Null(), Bool(true)}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf = tp.AppendKey(buf[:0]) }); n != 0 {
		t.Errorf("Tuple.AppendKey allocates %v times per call", n)
	}
	cols := []int{1, 2, 5}
	if n := testing.AllocsPerRun(100, func() { buf = tp.AppendKeyOn(buf[:0], cols) }); n != 0 {
		t.Errorf("Tuple.AppendKeyOn allocates %v times per call", n)
	}
	seen := map[string]bool{tp.Key(): true}
	hit := true
	if n := testing.AllocsPerRun(100, func() {
		buf = tp.AppendKey(buf[:0])
		hit = hit && seen[string(buf)]
	}); n != 0 {
		t.Errorf("hit lookup m[string(buf)] allocates %v times per call", n)
	}
	if !hit {
		t.Error("appended key missed the map entry Key inserted")
	}
	// The Key wrappers and Query.Key allocate only their result.
	q := NewQuery("cars", Eq("model", String("Civic")), Between("price", Int(9000), Int(15000)), Eq("make", String("Honda")))
	q.Agg = &Aggregate{Func: AggAvg, Attr: "price"}
	for name, key := range map[string]func() string{
		"Value.Key":   func() string { return tp[1].Key() },
		"Tuple.Key":   func() string { return tp.Key() },
		"Tuple.KeyOn": func() string { return tp.KeyOn(cols) },
		"Query.Key":   func() string { return q.Key() },
	} {
		if n := testing.AllocsPerRun(100, func() { _ = key() }); n > 1 {
			t.Errorf("%s allocates %v times per call, want 1", name, n)
		}
	}
}
