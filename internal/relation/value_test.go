package relation

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null(), KindNull, "null"},
		{String("Honda"), KindString, "Honda"},
		{Int(2004), KindInt, "2004"},
		{Float(1.5), KindFloat, "1.5"},
		{Bool(true), KindBool, "true"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("Kind() = %v, want %v", c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("String() = %q, want %q", c.v.String(), c.str)
		}
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value should be null")
	}
}

func TestNullNeverEqual(t *testing.T) {
	if Null().Equal(Null()) {
		t.Error("null = null must be false under SQL semantics")
	}
	if Null().Equal(Int(1)) || Int(1).Equal(Null()) {
		t.Error("null = 1 must be false")
	}
	if !Null().Identical(Null()) {
		t.Error("Identical must treat null as identical to null")
	}
}

func TestCrossKindNumericEquality(t *testing.T) {
	if !Int(5).Equal(Float(5.0)) {
		t.Error("Int(5) should equal Float(5)")
	}
	if Int(5).Equal(Float(5.5)) {
		t.Error("Int(5) should not equal Float(5.5)")
	}
	if Int(5).Equal(String("5")) {
		t.Error("Int(5) should not equal String(5)")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
		ok   bool
	}{
		{Int(1), Int(2), -1, true},
		{Int(2), Int(2), 0, true},
		{Int(3), Int(2), 1, true},
		{Float(1.5), Int(2), -1, true},
		{String("a"), String("b"), -1, true},
		{Bool(false), Bool(true), -1, true},
		{Bool(true), Bool(true), 0, true},
		{Null(), Int(1), 0, false},
		{String("a"), Int(1), 0, false},
	}
	for _, c := range cases {
		got, ok := c.a.Compare(c.b)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Compare(%v,%v) = %d,%v want %d,%v", c.a, c.b, got, ok, c.want, c.ok)
		}
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Str on int", func() { Int(1).Str() })
	mustPanic("IntVal on string", func() { String("x").IntVal() })
	mustPanic("FloatVal on null", func() { Null().FloatVal() })
	mustPanic("BoolVal on int", func() { Int(1).BoolVal() })
}

func TestDecodeRoundTrip(t *testing.T) {
	vals := []Value{
		Null(), String("Convt"), Int(-42), Float(3.25), Bool(false),
	}
	kinds := []Kind{KindString, KindString, KindInt, KindFloat, KindBool}
	for i, v := range vals {
		got, err := Decode(kinds[i], v.Encode())
		if err != nil {
			t.Fatalf("Decode(%v): %v", v, err)
		}
		if !got.Identical(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(KindInt, "abc"); err == nil {
		t.Error("decoding 'abc' as int should error")
	}
	if _, err := Decode(KindFloat, "x.y"); err == nil {
		t.Error("decoding 'x.y' as float should error")
	}
	if _, err := Decode(KindBool, "maybe"); err == nil {
		t.Error("decoding 'maybe' as bool should error")
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{KindNull, KindString, KindInt, KindFloat, KindBool} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v,%v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("banana"); err == nil {
		t.Error("ParseKind(banana) should error")
	}
}

// keyedSame is Key's contract spelled out: the same kind and the same
// payload, where every NaN is one payload and -0 and +0 are two.
func keyedSame(x, y Value) bool {
	if x.Kind() != y.Kind() {
		return false
	}
	switch x.Kind() {
	case KindNull:
		return true
	case KindString:
		return x.Str() == y.Str()
	case KindInt:
		return x.IntVal() == y.IntVal()
	case KindFloat:
		a, b := x.FloatVal(), y.FloatVal()
		if math.IsNaN(a) || math.IsNaN(b) {
			return math.IsNaN(a) && math.IsNaN(b)
		}
		return math.Float64bits(a) == math.Float64bits(b)
	default:
		return x.BoolVal() == y.BoolVal()
	}
}

// Property: two values share a key exactly when keyedSame holds, and Key
// agrees with Identical except on the three documented cases — an int and
// a float of the same number, -0 against +0, and NaN against NaN.
func TestValueKeyConsistentWithIdentical(t *testing.T) {
	f := func(a, b int64, s1, s2 string, x, y float64, p, q bool) bool {
		vals := []Value{
			Int(a), Int(b), String(s1), String(s2), Null(), Bool(p), Bool(q),
			Float(x), Float(y), Float(float64(a)), Float(math.NaN()),
			Float(math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)),
			Float(0), Float(math.Copysign(0, -1)), Int(0), Int(1), Float(1),
			String("1"), String("i1"),
		}
		for _, v := range vals {
			for _, w := range vals {
				same := v.Key() == w.Key()
				if same != keyedSame(v, w) {
					return false
				}
				if same == v.Identical(w) {
					continue
				}
				crossKind := v.Kind() != w.Kind()
				nv, _ := v.Numeric()
				signedZero := v.Kind() == KindFloat && nv == 0
				nan := v.Kind() == KindFloat && math.IsNaN(nv)
				if !crossKind && !signedZero && !nan {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// The three exceptions, pinned.
	negZero := Float(math.Copysign(0, -1))
	nan := Float(math.NaN())
	if !Int(1).Identical(Float(1)) || Int(1).Key() == Float(1).Key() {
		t.Error("Int(1) and Float(1): Identical, keys differ")
	}
	if !Float(0).Identical(negZero) || Float(0).Key() == negZero.Key() {
		t.Error("+0 and -0: Identical, keys differ")
	}
	if nan.Identical(nan) || nan.Key() != Float(-math.NaN()).Key() {
		t.Error("NaN: not Identical to itself, one key for every NaN")
	}
}

// Property: Compare is antisymmetric and consistent with Equal for ints.
func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Int(a), Int(b)
		c1, ok1 := x.Compare(y)
		c2, ok2 := y.Compare(x)
		if !ok1 || !ok2 {
			return false
		}
		if c1 != -c2 {
			return false
		}
		return (c1 == 0) == x.Equal(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatKeyPrecision(t *testing.T) {
	x, y := 0.1, 0.2 // runtime addition: 0.1+0.2 != 0.3 in float64
	a := Float(x + y)
	b := Float(0.3)
	if a.Key() == b.Key() {
		t.Error("0.1+0.2 and 0.3 must have distinct keys")
	}
	if Float(math.Inf(1)).Key() == Float(math.MaxFloat64).Key() {
		t.Error("inf and max float must differ")
	}
}

func TestNumeric(t *testing.T) {
	if f, ok := Int(7).Numeric(); !ok || f != 7 {
		t.Error("Int(7).Numeric() failed")
	}
	if f, ok := Float(2.5).Numeric(); !ok || f != 2.5 {
		t.Error("Float(2.5).Numeric() failed")
	}
	if _, ok := String("x").Numeric(); ok {
		t.Error("String.Numeric() should not be ok")
	}
	if _, ok := Null().Numeric(); ok {
		t.Error("Null.Numeric() should not be ok")
	}
}

// TestValueSize pins Value's layout: a kind, a string and one payload word
// make 32 bytes on 64-bit platforms. A field added later fails here.
func TestValueSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned on 64-bit platforms only")
	}
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}
