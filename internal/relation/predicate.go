package relation

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Op enumerates the comparison operators supported in selection predicates.
type Op uint8

const (
	// OpEq matches tuples whose attribute equals the predicate value.
	OpEq Op = iota
	// OpNe matches tuples whose attribute differs from the predicate value.
	OpNe
	// OpLt matches attribute < value.
	OpLt
	// OpLe matches attribute <= value.
	OpLe
	// OpGt matches attribute > value.
	OpGt
	// OpGe matches attribute >= value.
	OpGe
	// OpBetween matches value <= attribute <= high (inclusive both ends,
	// matching the paper's "Price between 15000 and 20000" examples).
	OpBetween
	// OpIsNull matches tuples whose attribute is null. Autonomous web
	// sources generally refuse this operator; it exists for baselines and
	// for oracular evaluation against ground truth.
	OpIsNull
	// OpNotNull matches tuples whose attribute is non-null.
	OpNotNull
)

// String renders the operator symbol.
func (o Op) String() string {
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
		return "op(" + strconv.Itoa(int(o)) + ")"
	}
}

// Predicate is a single selection condition on one attribute.
// High is used only by OpBetween.
type Predicate struct {
	Attr  string
	Op    Op
	Value Value
	High  Value
}

// Eq builds an equality predicate, the workhorse of web-form queries.
func Eq(attr string, v Value) Predicate { return Predicate{Attr: attr, Op: OpEq, Value: v} }

// Between builds an inclusive range predicate.
func Between(attr string, lo, hi Value) Predicate {
	return Predicate{Attr: attr, Op: OpBetween, Value: lo, High: hi}
}

// IsNull builds a null-binding predicate.
func IsNull(attr string) Predicate { return Predicate{Attr: attr, Op: OpIsNull} }

// Matches evaluates the predicate against tuple t under schema s: the
// attribute's value must satisfy Holds. A predicate on an attribute the
// schema lacks matches nothing.
func (p Predicate) Matches(s *Schema, t Tuple) bool {
	i, ok := s.Index(p.Attr)
	return ok && p.Holds(t[i])
}

// Holds evaluates the predicate against one attribute value: the value-level
// check that Matches and the mediator's probability mass share, and that
// Relation.Scan's compiled tests reproduce. SQL three-valued semantics
// collapse to boolean: a null value fails every operator except OpIsNull,
// and a comparison with a null constant fails every value.
func (p Predicate) Holds(v Value) bool {
	switch p.Op {
	case OpIsNull:
		return v.IsNull()
	case OpNotNull:
		return !v.IsNull()
	}
	if v.IsNull() {
		return false
	}
	switch p.Op {
	case OpEq:
		return v.Equal(p.Value)
	case OpNe:
		// As with =, a comparison with NULL is unknown: no row matches.
		return !p.Value.IsNull() && !v.Equal(p.Value)
	case OpLt:
		c, ok := v.Compare(p.Value)
		return ok && c < 0
	case OpLe:
		c, ok := v.Compare(p.Value)
		return ok && c <= 0
	case OpGt:
		c, ok := v.Compare(p.Value)
		return ok && c > 0
	case OpGe:
		c, ok := v.Compare(p.Value)
		return ok && c >= 0
	case OpBetween:
		lo, ok1 := v.Compare(p.Value)
		hi, ok2 := v.Compare(p.High)
		return ok1 && ok2 && lo >= 0 && hi <= 0
	}
	return false
}

// testKind is the form of a predicate compiled for Relation.Scan.
type testKind uint8

const (
	testHolds  testKind = iota // the fallback: Predicate.Holds on the row cell
	testCodeEq                 // string =: dictionary code compare
	testWordEq                 // int = Int: exact 64-bit compare
	testRange                  // numeric <=, >= and BETWEEN, through float64
)

// scanTest is one predicate compiled against its attribute's column. It
// answers exactly what Predicate.Holds answers on the row cell.
type scanTest struct {
	kind   testKind
	codes  []uint32 // testCodeEq
	null   []bool   // testWordEq, testRange
	words  []uint64
	ints   bool // words hold int64s, not float64 bits
	code   uint32
	word   uint64
	lo, hi float64
	pred   *Predicate // testHolds
	col    int        // testHolds
}

// compileTest compiles p into a test over its attribute's column, building
// the column if needed. ok is false when p provably matches no tuple: its
// attribute is not in the schema, it compares with NULL, or it asks for
// equality with a string no row holds.
func (r *Relation) compileTest(p *Predicate) (t scanTest, ok bool) {
	col, ok := r.Schema.Index(p.Attr)
	if !ok {
		return t, false
	}
	kind := r.Schema.Attr(col).Kind
	switch {
	case p.Op == OpIsNull || p.Op == OpNotNull:
		// Tested on the row cell, below.
	case p.Value.IsNull() || p.Op == OpBetween && p.High.IsNull():
		// A comparison with NULL is unknown: no row matches.
		return t, false
	case kind == KindString && p.Op == OpEq && p.Value.Kind() == KindString:
		c := r.column(col)
		// A constant missing from the dictionary gets code 0, which only
		// null rows carry, so it matches nothing.
		code := c.dict[p.Value.Str()]
		return scanTest{kind: testCodeEq, codes: c.codes, code: code}, code != 0
	case kind == KindInt && p.Op == OpEq && p.Value.Kind() == KindInt:
		c := r.column(col)
		return scanTest{kind: testWordEq, null: c.null, words: c.words, word: uint64(p.Value.IntVal())}, true
	case (kind == KindInt || kind == KindFloat) && (p.Op == OpLe || p.Op == OpGe || p.Op == OpBetween):
		lo, lok := p.Value.Numeric()
		hi, hok := p.High.Numeric()
		switch p.Op {
		case OpLe:
			lo, hi, hok = math.Inf(-1), lo, true
		case OpGe:
			hi, hok = math.Inf(1), true
		}
		if lok && hok {
			c := r.column(col)
			return scanTest{kind: testRange, null: c.null, words: c.words, ints: kind == KindInt, lo: lo, hi: hi}, true
		}
	}
	return scanTest{kind: testHolds, pred: p, col: col}, true
}

// holds reports whether the tuple at position pos of tuples passes t.
func (t *scanTest) holds(tuples []Tuple, pos int) bool {
	switch t.kind {
	case testHolds:
		return t.pred.Holds(tuples[pos][t.col])
	case testCodeEq:
		return t.codes[pos] == t.code
	case testWordEq:
		return t.words[pos] == t.word && !t.null[pos]
	}
	if t.null[pos] {
		return false
	}
	f := math.Float64frombits(t.words[pos])
	if t.ints {
		f = float64(int64(t.words[pos]))
	}
	// Value.Compare orders through float64 and calls NaN equal to every
	// number, so a NaN cell or bound passes <=, >= and BETWEEN. That is
	// why the range test is not lo <= f && f <= hi.
	return !(f < t.lo) && !(f > t.hi)
}

// NullOn reports whether tuple t is null on the predicate's attribute.
func (p Predicate) NullOn(s *Schema, t Tuple) bool {
	i, ok := s.Index(p.Attr)
	return ok && t[i].IsNull()
}

// String renders the predicate in the paper's sigma-subscript style.
func (p Predicate) String() string {
	var buf [64]byte
	return string(p.AppendString(buf[:0]))
}

// AppendString appends the bytes String returns to b: "attr is null",
// "attr between v and h", or the attribute, operator and value run together
// ("price<9000"), each value as Value.String renders it.
func (p Predicate) AppendString(b []byte) []byte {
	b = append(b, p.Attr...)
	switch p.Op {
	case OpIsNull, OpNotNull:
		b = append(b, ' ')
		return append(b, p.Op.String()...)
	case OpBetween:
		b = append(b, " between "...)
		b = p.Value.appendText(b)
		b = append(b, " and "...)
		return p.High.appendText(b)
	default:
		b = append(b, p.Op.String()...)
		return p.Value.appendText(b)
	}
}

// Query is a conjunctive selection over one relation, optionally carrying an
// aggregate. The zero Query selects everything.
type Query struct {
	// Relation names the target relation (informational at this layer; the
	// executor is handed a relation explicitly).
	Relation string
	// Preds are conjunctive selection predicates.
	Preds []Predicate
	// Agg, if non-nil, turns the query into an aggregate query over the
	// selected tuples.
	Agg *Aggregate
}

// NewQuery builds a selection query over the named relation.
func NewQuery(rel string, preds ...Predicate) Query {
	return Query{Relation: rel, Preds: preds}
}

// Clone deep-copies the query.
func (q Query) Clone() Query {
	out := q
	out.Preds = make([]Predicate, len(q.Preds))
	copy(out.Preds, q.Preds)
	if q.Agg != nil {
		agg := *q.Agg
		out.Agg = &agg
	}
	return out
}

// Matches reports whether tuple t satisfies every predicate (a certain
// answer in Definition 2 when the query is a selection).
func (q Query) Matches(s *Schema, t Tuple) bool {
	for _, p := range q.Preds {
		if !p.Matches(s, t) {
			return false
		}
	}
	return true
}

// ConstrainedAttrs returns the distinct attribute names constrained by the
// query, in first-appearance order.
func (q Query) ConstrainedAttrs() []string {
	seen := make(map[string]bool, len(q.Preds))
	var out []string
	for _, p := range q.Preds {
		if !seen[p.Attr] {
			seen[p.Attr] = true
			out = append(out, p.Attr)
		}
	}
	return out
}

// PredOn returns the first predicate constraining the named attribute.
func (q Query) PredOn(attr string) (Predicate, bool) {
	for _, p := range q.Preds {
		if p.Attr == attr {
			return p, true
		}
	}
	return Predicate{}, false
}

// WithoutAttr returns a copy of the query with every predicate on the named
// attribute removed. This is the core rewriting primitive: rewritten queries
// must not constrain the attribute whose nulls we want to retrieve.
func (q Query) WithoutAttr(attr string) Query {
	out := q.Clone()
	preds := out.Preds[:0]
	for _, p := range out.Preds {
		if p.Attr != attr {
			preds = append(preds, p)
		}
	}
	out.Preds = preds
	return out
}

// With returns a copy of the query with the extra predicate appended.
func (q Query) With(p Predicate) Query {
	out := q.Clone()
	out.Preds = append(out.Preds, p)
	return out
}

// Key returns a canonical encoding of the query, used to avoid issuing the
// same rewritten query twice: the relation name, then each predicate as
// attr \x1e op \x1e value key \x1e high key in byte order, then the
// aggregate if any, joined by \x1f. Predicate order is normalized.
//
// The predicates are encoded into one buffer and their spans sorted in
// place, so a key costs one allocation for the result (plus buffer growth
// past a few hundred bytes).
func (q Query) Key() string {
	var encBuf [256]byte
	var spanBuf [8]keySpan
	enc, spans := encBuf[:0], spanBuf[:0]
	for _, p := range q.Preds {
		start := len(enc)
		enc = append(enc, p.Attr...)
		enc = append(enc, '\x1e')
		enc = append(enc, p.Op.String()...)
		enc = append(enc, '\x1e')
		enc = p.Value.AppendKey(enc)
		enc = append(enc, '\x1e')
		enc = p.High.AppendKey(enc)
		spans = append(spans, keySpan{start, len(enc)})
	}
	slices.SortFunc(spans, func(a, b keySpan) int {
		return bytes.Compare(enc[a.lo:a.hi], enc[b.lo:b.hi])
	})
	var agg string
	if q.Agg != nil {
		agg = q.Agg.String()
	}
	var b strings.Builder
	b.Grow(len(q.Relation) + len(enc) + len(spans) + 1 + len(agg))
	b.WriteString(q.Relation)
	for _, sp := range spans {
		b.WriteByte('\x1f')
		b.Write(enc[sp.lo:sp.hi])
	}
	if q.Agg != nil {
		b.WriteByte('\x1f')
		b.WriteString(agg)
	}
	return b.String()
}

// keySpan is one predicate's encoding within Query.Key's buffer.
type keySpan struct{ lo, hi int }

// String renders the query in the paper's sigma notation.
func (q Query) String() string {
	var buf [128]byte
	return string(q.AppendString(buf[:0]))
}

// AppendString appends the bytes String returns to b: the aggregate and a
// space if there is one, then "σ[" and the predicates joined by " ∧ "
// ("true" when there are none), "]", and the relation name in parentheses
// when it is not empty. It costs no fmt call and no string per predicate.
func (q Query) AppendString(b []byte) []byte {
	if q.Agg != nil {
		b = append(b, q.Agg.String()...)
		b = append(b, ' ')
	}
	b = append(b, "σ["...)
	if len(q.Preds) == 0 {
		b = append(b, "true"...)
	}
	for i := range q.Preds {
		if i > 0 {
			b = append(b, " ∧ "...)
		}
		b = q.Preds[i].AppendString(b)
	}
	b = append(b, ']')
	if q.Relation != "" {
		b = append(b, '(')
		b = append(b, q.Relation...)
		b = append(b, ')')
	}
	return b
}
