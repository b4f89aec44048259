// Package relation implements the relational substrate QPIAD mediates over:
// typed values with explicit nulls, schemas, tuples, in-memory relations,
// conjunctive selection predicates, aggregates, and CSV interchange.
//
// The package is deliberately self-contained (stdlib only) so that the
// mediator, the knowledge-mining layer, and the autonomous-source simulator
// all share one data model.
package relation

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the value types supported by the engine. Null is a kind of
// its own so that a Value is always self-describing.
type Kind uint8

const (
	// KindNull marks a missing attribute value ("null" in the paper).
	KindNull Kind = iota
	// KindString is a categorical string value.
	KindString
	// KindInt is a 64-bit integer value.
	KindInt
	// KindFloat is a 64-bit floating point value.
	KindFloat
	// KindBool is a boolean value.
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind converts a kind name (as produced by Kind.String) back to a Kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "null":
		return KindNull, nil
	case "string", "str":
		return KindString, nil
	case "int", "integer":
		return KindInt, nil
	case "float", "double", "real":
		return KindFloat, nil
	case "bool", "boolean":
		return KindBool, nil
	default:
		return KindNull, fmt.Errorf("relation: unknown kind %q", s)
	}
}

// Value is a single attribute value. The zero Value is null.
//
// The int, float and bool payloads share one word, n: an int as its two's
// complement bits, a float as math.Float64bits, a bool as 0 or 1. That keeps
// a Value at 32 bytes on 64-bit platforms. So == and reflect.DeepEqual on
// Values compare float bits: NaN equals NaN there, and -0 differs from +0.
// Equal compares float64 values (NaN equals nothing, -0 equals +0); compare
// Values with Equal or Identical, and key maps by Key, never by Value.
type Value struct {
	kind Kind
	s    string
	n    uint64
}

// Null returns the null value.
func Null() Value { return Value{} }

// String returns a string-kinded value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int returns an int-kinded value.
func Int(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// Float returns a float-kinded value.
func Float(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// Bool returns a bool-kinded value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Kind reports the kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload. It panics if v is not string-kinded.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("relation: Str on %s value", v.kind))
	}
	return v.s
}

// IntVal returns the int payload. It panics if v is not int-kinded.
func (v Value) IntVal() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("relation: IntVal on %s value", v.kind))
	}
	return int64(v.n)
}

// FloatVal returns the float payload. It panics if v is not float-kinded.
func (v Value) FloatVal() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("relation: FloatVal on %s value", v.kind))
	}
	return math.Float64frombits(v.n)
}

// BoolVal returns the bool payload. It panics if v is not bool-kinded.
func (v Value) BoolVal() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("relation: BoolVal on %s value", v.kind))
	}
	return v.n != 0
}

// Numeric returns the value as a float64 for int and float kinds.
// The second result reports whether the conversion applied.
func (v Value) Numeric() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(int64(v.n)), true
	case KindFloat:
		return math.Float64frombits(v.n), true
	default:
		return 0, false
	}
}

// Equal reports whether two values are identical in kind and payload.
// Following SQL semantics used throughout the paper, null is not equal to
// anything, including null.
func (v Value) Equal(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull {
		return false
	}
	if v.kind != o.kind {
		// Allow int/float cross-kind numeric equality: selection constants
		// parsed from user input may be int while the column is float.
		a, aok := v.Numeric()
		b, bok := o.Numeric()
		return aok && bok && a == b
	}
	switch v.kind {
	case KindString:
		return v.s == o.s
	case KindInt, KindBool:
		return v.n == o.n
	case KindFloat:
		return math.Float64frombits(v.n) == math.Float64frombits(o.n)
	}
	return false
}

// Identical reports whether two values are exactly the same, treating null
// as identical to null. This is the notion used for grouping, indexing and
// duplicate elimination (where SQL also groups nulls together).
func (v Value) Identical(o Value) bool {
	if v.kind == KindNull && o.kind == KindNull {
		return true
	}
	return v.Equal(o)
}

// Compare orders two non-null values. It returns -1, 0 or +1 and ok=false
// when the values are not comparable (either is null, or kinds are
// incomparable).
func (v Value) Compare(o Value) (int, bool) {
	if v.kind == KindNull || o.kind == KindNull {
		return 0, false
	}
	if a, aok := v.Numeric(); aok {
		if b, bok := o.Numeric(); bok {
			switch {
			case a < b:
				return -1, true
			case a > b:
				return 1, true
			default:
				return 0, true
			}
		}
		return 0, false
	}
	if v.kind != o.kind {
		return 0, false
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.s, o.s), true
	case KindBool:
		switch {
		case v.n == o.n:
			return 0, true
		case v.n == 0:
			return -1, true
		default:
			return 1, true
		}
	}
	return 0, false
}

// Key returns a canonical string encoding of the value usable as a map key.
// Two values share a key exactly when they have the same kind and the same
// payload, with two exceptions for floats: every NaN has the one key "fNaN",
// and -0 and +0 have different keys. So Key is finer than Identical across
// kinds (Int(1) and Float(1) are Identical but keyed "i1" and "f1") and on
// signed zeros, and coarser on NaN (Identical to nothing, itself included).
// The mediator's duplicate elimination and DistinctOn go by Key.
func (v Value) Key() string {
	var buf [64]byte
	return string(v.AppendKey(buf[:0]))
}

// AppendKey appends v's canonical key (see Key) to dst and returns the
// extended slice. Hot loops append into one reused buffer and look maps up
// with m[string(buf)], which Go does without copying the bytes.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 0)
	case KindString:
		return append(append(dst, 's'), v.s...)
	case KindInt:
		return strconv.AppendInt(append(dst, 'i'), int64(v.n), 10)
	case KindFloat:
		return strconv.AppendFloat(append(dst, 'f'), math.Float64frombits(v.n), 'g', -1, 64)
	case KindBool:
		if v.n != 0 {
			return append(dst, 'b', 't')
		}
		return append(dst, 'b', 'f')
	}
	return dst
}

// KeyEqual reports whether v and o have the same canonical key,
// v.Key() == o.Key(), without building either key: the same kind and
// payload, every NaN equal to every NaN, and -0 apart from +0.
func (v Value) KeyEqual(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindString:
		return v.s == o.s
	case KindFloat:
		return v.n == o.n || (math.IsNaN(math.Float64frombits(v.n)) && math.IsNaN(math.Float64frombits(o.n)))
	}
	return v.n == o.n
}

// keyHashSeed seeds the string payloads of KeyHash for the life of the
// process. Hashes are for in-memory lookups only and never leave it.
var keyHashSeed = maphash.MakeSeed()

// KeyHash folds v's canonical key into the running hash h and returns the
// result. Values that are KeyEqual fold identically, so a combination of
// values hashes in one pass with no key bytes built; distinct keys may
// collide, so a lookup settles a hash match with KeyEqual.
func (v Value) KeyHash(h uint64) uint64 {
	x := v.n
	switch v.kind {
	case KindString:
		x = maphash.String(keyHashSeed, v.s)
	case KindFloat:
		if math.IsNaN(math.Float64frombits(x)) {
			x = math.Float64bits(math.NaN())
		}
	}
	h = (h ^ uint64(v.kind)<<56 ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>31
}

// String renders the value for display. Null renders as "null".
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.n != 0)
	}
	return "?"
}

// appendText appends the bytes String returns to b.
func (v Value) appendText(b []byte) []byte {
	switch v.kind {
	case KindString:
		return append(b, v.s...)
	case KindInt:
		return strconv.AppendInt(b, int64(v.n), 10)
	case KindFloat:
		return strconv.AppendFloat(b, math.Float64frombits(v.n), 'g', -1, 64)
	case KindBool:
		return strconv.AppendBool(b, v.n != 0)
	}
	return append(b, v.String()...)
}

// CSV field escape scheme. Null and the empty string both need non-empty
// encodings: encoding/csv silently skips blank lines, so a row whose only
// field were empty would vanish on read. A leading backslash marks the
// escapes; literal leading backslashes are doubled.
const (
	// NullToken is the CSV encoding of a null value (the MySQL convention).
	NullToken = `\N`
	// EmptyToken is the CSV encoding of the empty string.
	EmptyToken = `\E`
)

// Encode renders the value for CSV interchange: null as NullToken, the
// empty string as EmptyToken, a leading backslash doubled; everything else
// verbatim. Decode applies the inverse mapping.
func (v Value) Encode() string {
	if v.kind == KindNull {
		return NullToken
	}
	s := v.String()
	if v.kind == KindString {
		switch {
		case s == "":
			return EmptyToken
		case strings.HasPrefix(s, `\`):
			return `\` + s
		}
	}
	return s
}

// Decode parses s into a value of the given kind. NullToken decodes to
// null for every kind; for non-string kinds the empty string also decodes
// to null (tolerating hand-written CSVs). For string kinds, EmptyToken
// decodes to the empty string and a doubled leading backslash is stripped;
// other leading backslashes are taken literally (so hand-written fields
// stay stable under re-encoding).
func Decode(kind Kind, s string) (Value, error) {
	if s == NullToken {
		return Null(), nil
	}
	if s == "" && kind != KindString {
		return Null(), nil
	}
	switch kind {
	case KindString:
		switch {
		case s == EmptyToken:
			return String(""), nil
		case strings.HasPrefix(s, `\\`):
			return String(s[1:]), nil
		}
		return String(s), nil
	case KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("relation: decode int %q: %w", s, err)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null(), fmt.Errorf("relation: decode float %q: %w", s, err)
		}
		return Float(f), nil
	case KindBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Null(), fmt.Errorf("relation: decode bool %q: %w", s, err)
		}
		return Bool(b), nil
	case KindNull:
		return Null(), nil
	default:
		return Null(), fmt.Errorf("relation: decode: unknown kind %v", kind)
	}
}
