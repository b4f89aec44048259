package relation

import (
	"testing"
	"testing/quick"
)

func sampleTuple() Tuple {
	return Tuple{String("Honda"), String("Civic"), Int(2004), Null()}
}

func TestPredicateEq(t *testing.T) {
	s := carSchema()
	tu := sampleTuple()
	if !Eq("make", String("Honda")).Matches(s, tu) {
		t.Error("make=Honda should match")
	}
	if Eq("make", String("Toyota")).Matches(s, tu) {
		t.Error("make=Toyota should not match")
	}
	// Null attribute never matches equality.
	if Eq("body_style", String("Sedan")).Matches(s, tu) {
		t.Error("null body_style should not match Sedan")
	}
	// Unknown attribute never matches.
	if Eq("price", Int(1)).Matches(s, tu) {
		t.Error("unknown attribute should not match")
	}
}

// TestPredicateHolds checks the value-level operator switch that Matches,
// Scan and the mediator's probability mass share.
func TestPredicateHolds(t *testing.T) {
	cases := []struct {
		pred Predicate
		v    Value
		want bool
	}{
		{Eq("a", String("x")), String("x"), true},
		{Eq("a", String("x")), String("y"), false},
		{Eq("a", String("x")), Null(), false},
		{Between("a", Int(5), Int(10)), Int(7), true},
		{Between("a", Int(5), Int(10)), Int(11), false},
		{Predicate{Attr: "a", Op: OpLt, Value: Int(5)}, Int(4), true},
		{Predicate{Attr: "a", Op: OpGe, Value: Int(5)}, Int(5), true},
		{Predicate{Attr: "a", Op: OpNe, Value: Int(5)}, Int(4), true},
		{IsNull("a"), Null(), true},
		{IsNull("a"), Int(1), false},
		{Predicate{Attr: "a", Op: OpNotNull}, Int(1), true},
		// != NULL is unknown, as = NULL is: no row matches.
		{Predicate{Attr: "a", Op: OpNe, Value: Null()}, Int(4), false},
		{Predicate{Attr: "a", Op: OpNe, Value: Null()}, String("x"), false},
	}
	for _, c := range cases {
		checkHolds(t, c.pred, c.v, c.want)
	}
}

func TestPredicateHoldsRemainingOps(t *testing.T) {
	// The ops not covered by the main table test.
	cases := []struct {
		name string
		pred Predicate
		v    Value
		want bool
	}{
		{"Le boundary", Predicate{Attr: "a", Op: OpLe, Value: Int(5)}, Int(5), true},
		{"Gt boundary", Predicate{Attr: "a", Op: OpGt, Value: Int(5)}, Int(5), false},
		{"NotNull on null", Predicate{Attr: "a", Op: OpNotNull}, Null(), false},
		// Incomparable kinds fail ordering operators.
		{"cross-kind Lt", Predicate{Attr: "a", Op: OpLt, Value: Int(5)}, String("x"), false},
		// Unknown op is false.
		{"unknown op", Predicate{Attr: "a", Op: Op(99), Value: Int(1)}, Int(1), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkHolds(t, c.pred, c.v, c.want) })
	}
}

// checkHolds asserts that p.Holds(v) is want, and that Matches on the
// one-attribute tuple {v} agrees with it.
func checkHolds(t *testing.T, p Predicate, v Value, want bool) {
	t.Helper()
	if got := p.Holds(v); got != want {
		t.Errorf("%v.Holds(%v) = %v, want %v", p, v, got, want)
	}
	s := MustSchema(Attribute{Name: "a", Kind: v.Kind()})
	if got := p.Matches(s, Tuple{v}); got != want {
		t.Errorf("%v.Matches({%v}) = %v, want %v", p, v, got, want)
	}
}

func TestPredicateOrderingOps(t *testing.T) {
	s := carSchema()
	tu := sampleTuple() // year = 2004
	cases := []struct {
		p    Predicate
		want bool
	}{
		{Predicate{Attr: "year", Op: OpLt, Value: Int(2005)}, true},
		{Predicate{Attr: "year", Op: OpLt, Value: Int(2004)}, false},
		{Predicate{Attr: "year", Op: OpLe, Value: Int(2004)}, true},
		{Predicate{Attr: "year", Op: OpGt, Value: Int(2003)}, true},
		{Predicate{Attr: "year", Op: OpGe, Value: Int(2005)}, false},
		{Predicate{Attr: "year", Op: OpNe, Value: Int(2004)}, false},
		{Predicate{Attr: "year", Op: OpNe, Value: Int(1999)}, true},
		{Between("year", Int(2000), Int(2004)), true},
		{Between("year", Int(2005), Int(2010)), false},
		{Between("year", Int(2004), Int(2004)), true},
	}
	for _, c := range cases {
		if got := c.p.Matches(s, tu); got != c.want {
			t.Errorf("%s on year=2004: got %v want %v", c.p, got, c.want)
		}
	}
}

func TestPredicateNullOps(t *testing.T) {
	s := carSchema()
	tu := sampleTuple()
	if !IsNull("body_style").Matches(s, tu) {
		t.Error("body_style is null")
	}
	if IsNull("make").Matches(s, tu) {
		t.Error("make is not null")
	}
	if !(Predicate{Attr: "make", Op: OpNotNull}).Matches(s, tu) {
		t.Error("make is not null (OpNotNull)")
	}
	if (Predicate{Attr: "body_style", Op: OpNotNull}).Matches(s, tu) {
		t.Error("body_style OpNotNull should fail")
	}
	if !IsNull("body_style").NullOn(s, tu) {
		t.Error("NullOn(body_style)")
	}
	if Eq("make", String("x")).NullOn(s, tu) {
		t.Error("NullOn(make) should be false")
	}
}

func TestNullFailsEveryNonNullOp(t *testing.T) {
	s := carSchema()
	tu := Tuple{Null(), Null(), Null(), Null()}
	ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpBetween}
	for _, op := range ops {
		p := Predicate{Attr: "year", Op: op, Value: Int(2000), High: Int(2010)}
		if p.Matches(s, tu) {
			t.Errorf("null should fail op %v", op)
		}
	}
}

func TestQueryMatchesConjunction(t *testing.T) {
	s := carSchema()
	tu := sampleTuple()
	q := NewQuery("cars", Eq("make", String("Honda")), Eq("model", String("Civic")))
	if !q.Matches(s, tu) {
		t.Error("conjunction should match")
	}
	q2 := NewQuery("cars", Eq("make", String("Honda")), Eq("model", String("Accord")))
	if q2.Matches(s, tu) {
		t.Error("failed conjunct should fail the query")
	}
	empty := NewQuery("cars")
	if !empty.Matches(s, tu) {
		t.Error("empty query matches everything")
	}
}

func TestQueryConstrainedAttrs(t *testing.T) {
	q := NewQuery("cars",
		Eq("model", String("Accord")),
		Between("price", Int(15000), Int(20000)),
		Eq("model", String("Accord")), // duplicate attr
	)
	got := q.ConstrainedAttrs()
	if len(got) != 2 || got[0] != "model" || got[1] != "price" {
		t.Errorf("ConstrainedAttrs = %v", got)
	}
}

func TestQueryWithoutAttr(t *testing.T) {
	q := NewQuery("cars", Eq("model", String("Accord")), Eq("year", Int(2004)))
	q2 := q.WithoutAttr("model")
	if len(q2.Preds) != 1 || q2.Preds[0].Attr != "year" {
		t.Errorf("WithoutAttr = %v", q2)
	}
	// Original untouched.
	if len(q.Preds) != 2 {
		t.Error("WithoutAttr mutated the receiver")
	}
}

func TestQueryWith(t *testing.T) {
	q := NewQuery("cars", Eq("model", String("A4")))
	q2 := q.With(Eq("year", Int(2001)))
	if len(q2.Preds) != 2 || len(q.Preds) != 1 {
		t.Error("With should append without mutating receiver")
	}
}

func TestQueryKeyNormalizesOrder(t *testing.T) {
	a := NewQuery("cars", Eq("make", String("Honda")), Eq("year", Int(2004)))
	b := NewQuery("cars", Eq("year", Int(2004)), Eq("make", String("Honda")))
	if a.Key() != b.Key() {
		t.Error("Key should be order-insensitive")
	}
	c := NewQuery("cars", Eq("make", String("Honda")))
	if a.Key() == c.Key() {
		t.Error("different queries must have different keys")
	}
	d := a.Clone()
	d.Agg = &Aggregate{Func: AggCount}
	if a.Key() == d.Key() {
		t.Error("aggregate must alter the key")
	}
}

func TestQueryClone(t *testing.T) {
	q := NewQuery("cars", Eq("make", String("Honda")))
	q.Agg = &Aggregate{Func: AggSum, Attr: "price"}
	c := q.Clone()
	c.Preds[0] = Eq("make", String("Toyota"))
	c.Agg.Attr = "mileage"
	if q.Preds[0].Value.Str() != "Honda" || q.Agg.Attr != "price" {
		t.Error("Clone should deep-copy predicates and aggregate")
	}
}

func TestQueryString(t *testing.T) {
	q := NewQuery("cars", Eq("body_style", String("Convt")))
	want := "σ[body_style=Convt](cars)"
	if q.String() != want {
		t.Errorf("String() = %q want %q", q.String(), want)
	}
	if NewQuery("").String() != "σ[true]" {
		t.Errorf("empty query String() = %q", NewQuery("").String())
	}
}

// Property: Matches(WithoutAttr(a)) is implied by Matches(q) for any tuple —
// dropping a conjunct can only widen the result.
func TestWithoutAttrWidens(t *testing.T) {
	s := carSchema()
	f := func(year int16, makeSel bool) bool {
		tu := Tuple{String("Honda"), String("Civic"), Int(int64(year)), String("Sedan")}
		make := "Honda"
		if !makeSel {
			make = "Toyota"
		}
		q := NewQuery("cars", Eq("make", String(make)), Eq("year", Int(int64(year))))
		if q.Matches(s, tu) && !q.WithoutAttr("make").Matches(s, tu) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
