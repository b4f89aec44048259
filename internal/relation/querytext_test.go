package relation

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// refOpString, refPredicateString and refQueryString are Op.String,
// Predicate.String and Query.String as they were written with fmt, before
// the append form. AppendString and String must give their bytes.
func refOpString(o Op) string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpBetween:
		return "between"
	case OpIsNull:
		return "is null"
	case OpNotNull:
		return "is not null"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

func refPredicateString(p Predicate) string {
	switch p.Op {
	case OpIsNull, OpNotNull:
		return p.Attr + " " + refOpString(p.Op)
	case OpBetween:
		return fmt.Sprintf("%s between %s and %s", p.Attr, p.Value, p.High)
	default:
		return fmt.Sprintf("%s%s%s", p.Attr, refOpString(p.Op), p.Value)
	}
}

func refQueryString(q Query) string {
	parts := make([]string, len(q.Preds))
	for i, p := range q.Preds {
		parts[i] = refPredicateString(p)
	}
	sel := "σ[" + strings.Join(parts, " ∧ ") + "]"
	if len(q.Preds) == 0 {
		sel = "σ[true]"
	}
	if q.Relation != "" {
		sel += "(" + q.Relation + ")"
	}
	if q.Agg != nil {
		sel = q.Agg.String() + " " + sel
	}
	return sel
}

// textQuery builds the query the table and the fuzz target render: one
// predicate per value kind (null, int n, float x, bool, string s), each
// with an operator drawn from ops, every operator taking its turn as ops
// varies, plus an out-of-range one. agg picks no aggregate, each function
// (Count over "*" or attr) or an unknown one. npreds trims the predicates.
func textQuery(rel, attr, s string, n int64, x float64, ops uint8, agg uint8, npreds uint8) Query {
	values := []Value{Null(), Int(n), Float(x), Bool(n%2 != 0), String(s)}
	highs := []Value{String(s), Float(x), Int(n), Null(), Bool(true)}
	q := Query{Relation: rel}
	for i, v := range values {
		op := Op((int(ops) + i) % 10) // 9 is past OpNotNull
		q.Preds = append(q.Preds, Predicate{Attr: attr, Op: op, Value: v, High: highs[i]})
	}
	q.Preds = q.Preds[:int(npreds)%(len(q.Preds)+1)]
	switch a := agg % 8; {
	case a == 0:
	case a == 1:
		q.Agg = &Aggregate{Func: AggCount}
	default:
		q.Agg = &Aggregate{Func: AggFunc(a - 2), Attr: attr} // 5 is unknown
	}
	return q
}

// checkQueryText compares every render of q with the reference.
func checkQueryText(t *testing.T, q Query) {
	t.Helper()
	want := refQueryString(q)
	if got := q.String(); got != want {
		t.Fatalf("Query.String = %q, reference %q", got, want)
	}
	if got := string(q.AppendString([]byte("prefix "))); got != "prefix "+want {
		t.Fatalf("Query.AppendString after a prefix = %q, reference %q", got, want)
	}
	for _, p := range q.Preds {
		want := refPredicateString(p)
		if got := p.String(); got != want {
			t.Fatalf("Predicate.String = %q, reference %q", got, want)
		}
		if got := string(p.AppendString([]byte("∧"))); got != "∧"+want {
			t.Fatalf("Predicate.AppendString after a prefix = %q, reference %q", got, want)
		}
		if got := p.Op.String(); got != refOpString(p.Op) {
			t.Fatalf("Op.String = %q, reference %q", got, refOpString(p.Op))
		}
	}
}

func TestQueryTextMatchesReference(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1e21, 1e20, -1e21, 0.1, 1e-7, 123456789.125, 5e-324, math.MaxFloat64}
	ints := []int64{0, -5, 9000, math.MaxInt64, math.MinInt64}
	strs := []string{"", "Convt", "Citroën ∧ σ[x]", "\xff\xfe", "a\x00b", "O'Brien \"q\""}
	rels := []string{"cars", ""}
	aggs := []uint8{0, 1, 2, 3, 4, 5, 6, 7}
	rendered := 0
	for ops := uint8(0); ops < 10; ops++ {
		for i, x := range floats {
			n := ints[i%len(ints)]
			s := strs[(i+int(ops))%len(strs)]
			rel := rels[i%len(rels)]
			agg := aggs[(i+int(ops))%len(aggs)]
			for npreds := uint8(0); npreds <= 5; npreds++ {
				checkQueryText(t, textQuery(rel, "price", s, n, x, ops, agg, npreds))
				rendered++
			}
		}
	}
	// Every operator meets every value kind above; spot-check a few
	// renders by hand so the reference itself is pinned.
	for _, tc := range []struct {
		q    Query
		want string
	}{
		{Query{}, "σ[true]"},
		{NewQuery("cars", Eq("body_style", String("Convt")), Predicate{Attr: "price", Op: OpLt, Value: Int(9000)}), "σ[body_style=Convt ∧ price<9000](cars)"},
		{NewQuery("", Between("price", Float(1e21), Float(math.Copysign(0, -1)))), "σ[price between 1e+21 and -0]"},
		{NewQuery("db", IsNull("make"), Predicate{Attr: "x", Op: Op(42), Value: Bool(true)}), "σ[make is null ∧ xop(42)true](db)"},
		{Query{Relation: "cars", Agg: &Aggregate{Func: AggCount}}, "Count(*) σ[true](cars)"},
	} {
		checkQueryText(t, tc.q)
		if got := tc.q.String(); got != tc.want {
			t.Errorf("String = %q, want %q", got, tc.want)
		}
	}
	t.Logf("%d queries rendered", rendered)
}

// FuzzQueryText renders the queries textQuery builds from fuzzed inputs
// and compares them with the reference.
func FuzzQueryText(f *testing.F) {
	f.Add("cars", "price", "Convt", int64(9000), 0.5, uint8(0), uint8(0), uint8(5))
	f.Add("", "", "", int64(-1), math.Copysign(0, -1), uint8(6), uint8(1), uint8(2))
	f.Add("db", "make", "\xff∧ ", int64(math.MinInt64), math.Inf(-1), uint8(9), uint8(7), uint8(5))
	f.Add("r", "a b", "σ[", int64(1), 1e21, uint8(3), uint8(5), uint8(4))
	f.Fuzz(func(t *testing.T, rel, attr, s string, n int64, x float64, ops, agg, npreds uint8) {
		checkQueryText(t, textQuery(rel, attr, s, n, x, ops, agg, npreds))
	})
}
