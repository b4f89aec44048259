package relation

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Relation is an in-memory table: a schema plus tuples. Reads are safe for
// concurrent use once loading is finished; mutation is not synchronized.
type Relation struct {
	Name   string
	Schema *Schema

	tuples []Tuple

	mu      sync.Mutex
	indexes map[string]map[string][]int // attr -> value key -> tuple positions
	columns []*column                   // by schema position, each built on first use
	// indexed mirrors indexes != nil || columns != nil without the mutex,
	// so the insert path (which must invalidate) stays lock-free during
	// bulk loading, before any index or column has ever been built.
	indexed atomic.Bool
}

// New creates an empty relation with the given name and schema.
func New(name string, schema *Schema) *Relation {
	return &Relation{Name: name, Schema: schema}
}

// Insert appends a tuple after validating arity and kinds (null is valid for
// every attribute). The relation takes ownership of the tuple.
func (r *Relation) Insert(t Tuple) error {
	if err := r.coerce(t); err != nil {
		return err
	}
	r.tuples = append(r.tuples, t)
	r.invalidateIndexes()
	return nil
}

// InsertAll appends every tuple, validating each, and invalidates indexes
// at most once — the bulk-load entry point for generators and CSV loading.
// The call is atomic: on a validation error the relation is rolled back to
// its prior state, so a failed bulk load never leaves a partial append in
// the caller's hands.
func (r *Relation) InsertAll(ts []Tuple) error {
	if cap(r.tuples)-len(r.tuples) < len(ts) {
		grown := make([]Tuple, len(r.tuples), len(r.tuples)+len(ts))
		copy(grown, r.tuples)
		r.tuples = grown
	}
	start := len(r.tuples)
	for _, t := range ts {
		if err := r.coerce(t); err != nil {
			// Roll back: zero the appended entries so the backing array does
			// not retain the caller's tuples, then truncate. The visible
			// prefix is exactly what it was, so existing indexes stay valid
			// and no invalidation is needed.
			clear(r.tuples[start:])
			r.tuples = r.tuples[:start]
			return err
		}
		r.tuples = append(r.tuples, t)
	}
	r.invalidateIndexes()
	return nil
}

// Grow pre-sizes the tuple store for n upcoming inserts, so bulk
// generators building 10M-tuple worlds append without repeated
// reallocation and copying.
func (r *Relation) Grow(n int) {
	if cap(r.tuples)-len(r.tuples) >= n {
		return
	}
	grown := make([]Tuple, len(r.tuples), len(r.tuples)+n)
	copy(grown, r.tuples)
	r.tuples = grown
}

// coerce validates arity and kinds (null is valid for every attribute),
// rewriting int constants destined for float columns in place. Validation
// runs fully before any mutation: a tuple that fails on a later attribute
// is returned to the caller untouched, never half-coerced.
func (r *Relation) coerce(t Tuple) error {
	if len(t) != r.Schema.Len() {
		return fmt.Errorf("relation %s: tuple arity %d, schema arity %d", r.Name, len(t), r.Schema.Len())
	}
	for i, v := range t {
		if v.IsNull() {
			continue
		}
		want := r.Schema.Attr(i).Kind
		if v.Kind() != want {
			// Permit int constants in float columns (coerced below, after
			// the whole tuple has validated).
			if want == KindFloat && v.Kind() == KindInt {
				continue
			}
			return fmt.Errorf("relation %s: attribute %s wants %s, got %s",
				r.Name, r.Schema.Attr(i).Name, want, v.Kind())
		}
	}
	for i, v := range t {
		if !v.IsNull() && v.Kind() == KindInt && r.Schema.Attr(i).Kind == KindFloat {
			t[i] = Float(float64(v.IntVal()))
		}
	}
	return nil
}

// MustInsert is Insert that panics on error, for generators and tests.
func (r *Relation) MustInsert(t Tuple) {
	if err := r.Insert(t); err != nil {
		panic(err)
	}
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuple returns the i-th tuple (not a copy).
func (r *Relation) Tuple(i int) Tuple { return r.tuples[i] }

// Tuples returns the underlying tuple slice. Callers must not mutate it.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Clone deep-copies the relation (schema shared, tuples copied).
func (r *Relation) Clone() *Relation {
	out := New(r.Name, r.Schema)
	out.tuples = make([]Tuple, len(r.tuples))
	for i, t := range r.tuples {
		out.tuples[i] = t.Clone()
	}
	return out
}

func (r *Relation) invalidateIndexes() {
	// The common case during bulk loading: no index has ever been built, so
	// there is nothing to invalidate and no reason to touch the mutex.
	if !r.indexed.Load() {
		return
	}
	r.mu.Lock()
	r.indexes = nil
	r.columns = nil
	r.indexed.Store(false)
	r.mu.Unlock()
}

// index returns (building if needed) the hash index for the named attribute.
func (r *Relation) index(attr string) map[string][]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.indexes == nil {
		r.indexes = make(map[string]map[string][]int)
		r.indexed.Store(true)
	}
	if idx, ok := r.indexes[attr]; ok {
		return idx
	}
	col, ok := r.Schema.Index(attr)
	if !ok {
		return nil
	}
	idx := make(map[string][]int)
	for i, t := range r.tuples {
		k := t[col].Key()
		idx[k] = append(idx[k], i)
	}
	r.indexes[attr] = idx
	return idx
}

// column holds one attribute's cells in tuple-position order without
// pointers, so the GC never scans it and a scan tests a dense array
// instead of loading each tuple's heap row. coerce stores every non-null
// cell at the schema kind, so no row needs a kind of its own.
type column struct {
	// String attributes: a dictionary code per row, 0 for null. dict holds
	// the stored cells only; Scan looks query constants up without adding
	// them, so queries never grow it.
	codes []uint32
	dict  map[string]uint32
	// Int and float attributes: a null flag and a payload word per row,
	// two's complement for ints and math.Float64bits for floats.
	null  []bool
	words []uint64
}

// column returns (building if needed) the column of the string, int or
// float attribute at schema position col.
func (r *Relation) column(col int) *column {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.columns == nil {
		r.columns = make([]*column, r.Schema.Len())
		r.indexed.Store(true)
	}
	if c := r.columns[col]; c != nil {
		return c
	}
	c := new(column)
	if r.Schema.Attr(col).Kind == KindString {
		c.codes = make([]uint32, len(r.tuples))
		c.dict = make(map[string]uint32)
		for i, t := range r.tuples {
			if v := t[col]; !v.IsNull() {
				code, ok := c.dict[v.Str()]
				if !ok {
					code = uint32(len(c.dict) + 1)
					c.dict[v.Str()] = code
				}
				c.codes[i] = code
			}
		}
	} else {
		c.null = make([]bool, len(r.tuples))
		c.words = make([]uint64, len(r.tuples))
		for i, t := range r.tuples {
			switch v := t[col]; v.Kind() {
			case KindNull:
				c.null[i] = true
			case KindInt:
				c.words[i] = uint64(v.IntVal())
			case KindFloat:
				c.words[i] = math.Float64bits(v.FloatVal())
			}
		}
	}
	r.columns[col] = c
	return c
}

// Select returns the tuples satisfying the query's predicates, driven by the
// smallest applicable index posting list. The returned slice aliases the
// relation's tuples: callers may read it freely but must not mutate the
// tuples, and anything that outlives the relation's read phase (caches,
// sampled worlds, wire transfers) must deep-copy via Tuple.Clone first.
func (r *Relation) Select(q Query) []Tuple {
	return r.Scan(q).Collect()
}

// Count returns the number of tuples satisfying the query without
// materializing them.
func (r *Relation) Count(q Query) int {
	return r.Scan(q).Count()
}

// Scan streams the tuples satisfying q, in tuple-position order — the lazy
// form of Select, and the root of every operator pipeline over this
// relation. All equality and is-null predicates are probed against their
// hash indexes and the smallest posting list drives the scan — a rewrite
// binding several determining attributes pays for the rarest one, not the
// first one written. Queries with no index-drivable predicate fall back to
// a full scan. Posting lists hold positions in insertion order, so the
// drive choice never changes the output order. The drive predicate itself
// is satisfied by construction of its posting list and is not re-evaluated
// per tuple; each other predicate is compiled once per call into a test
// over its attribute's column (see compileTest).
//
// Yielded tuples alias the relation's store: hold one past the yield only
// via Tuple.Clone.
func (r *Relation) Scan(q Query) TupleSeq {
	return func(yield func(Tuple) bool) {
		driven := false
		driveIdx := -1 // index into q.Preds of the drive predicate
		var drive []int
		for pi, p := range q.Preds {
			key, mode := r.probeKey(p)
			if mode == probeNone {
				continue
			}
			if mode == probeEmpty {
				// The predicate provably matches no tuple (e.g. a string
				// constant against an int column): the conjunction is empty.
				return
			}
			idx := r.index(p.Attr)
			if idx == nil {
				continue
			}
			list := idx[key]
			if !driven || len(list) < len(drive) {
				driven, drive, driveIdx = true, list, pi
			}
			if len(drive) == 0 {
				// Some predicate matches nothing: the conjunction is empty.
				return
			}
		}
		var testBuf [8]scanTest
		tests := testBuf[:0]
		for pi := range q.Preds {
			if pi == driveIdx {
				continue
			}
			t, ok := r.compileTest(&q.Preds[pi])
			if !ok {
				// The predicate matches no tuple: the conjunction is empty.
				return
			}
			tests = append(tests, t)
		}
		if driven {
			for _, pos := range drive {
				if passes(tests, r.tuples, pos) && !yield(r.tuples[pos]) {
					return
				}
			}
			return
		}
		for pos, t := range r.tuples {
			if passes(tests, r.tuples, pos) && !yield(t) {
				return
			}
		}
	}
}

// passes reports whether the tuple at position pos passes every test.
func passes(tests []scanTest, tuples []Tuple, pos int) bool {
	for j := range tests {
		if !tests[j].holds(tuples, pos) {
			return false
		}
	}
	return true
}

// probeMode classifies what the index can do for one predicate.
type probeMode uint8

const (
	// probeNone: the predicate cannot drive an index scan; it is evaluated
	// per tuple as usual.
	probeNone probeMode = iota
	// probeKeyed: the predicate maps to exactly one posting-list key, and
	// every tuple in that list satisfies the predicate by construction.
	probeKeyed
	// probeEmpty: the predicate provably matches no tuple; the whole
	// conjunction is empty.
	probeEmpty
)

// probeKey maps a predicate to its hash-index posting-list key. Keys are
// canonicalized to the column's kind: coerce stores every non-null value of
// a column at the schema kind, while Value.Key is kind-sensitive — probing
// a float column's index with an int constant's key would miss every tuple
// that Predicate.Matches accepts via cross-kind numeric equality, silently
// emptying the result. probeKeyed is returned only when the posting list
// holds exactly the tuples the predicate accepts, which is what lets Scan
// skip re-evaluating the drive predicate per tuple.
func (r *Relation) probeKey(p Predicate) (string, probeMode) {
	col, ok := r.Schema.Index(p.Attr)
	if !ok {
		return "", probeNone
	}
	switch p.Op {
	case OpIsNull:
		return Null().Key(), probeKeyed
	case OpEq:
		// Handled below.
	default:
		return "", probeNone
	}
	v := p.Value
	if v.IsNull() {
		// Equality against null matches nothing under SQL semantics — but
		// the null posting list is exactly the tuples Matches rejects, so
		// the index cannot drive; report provably-empty instead.
		return "", probeEmpty
	}
	want := r.Schema.Attr(col).Kind
	switch {
	case want == KindFloat:
		// Int constants compare Equal to float columns via float64
		// conversion; the converted key matches exactly those tuples. Keys
		// and Equal disagree on two floats: every NaN shares one key but
		// equals nothing, and -0 and +0 are keyed apart but Equal. So a NaN
		// constant matches nothing, and a zero cannot drive the scan.
		f, ok := v.Numeric()
		switch {
		case !ok || math.IsNaN(f):
			return "", probeEmpty
		case f == 0:
			return "", probeNone
		}
		return Float(f).Key(), probeKeyed
	case v.Kind() == want:
		return v.Key(), probeKeyed
	case want == KindInt && v.Kind() == KindFloat:
		// A float constant can equal an int column value only when it is
		// integral; beyond 2^53 several ints share one float64, so the
		// single-key probe would be incomplete — fall back to scanning.
		const maxExact = 1 << 53
		f := v.FloatVal()
		if f != float64(int64(f)) {
			return "", probeEmpty
		}
		if f >= maxExact || f <= -maxExact {
			return "", probeNone
		}
		return Int(int64(f)).Key(), probeKeyed
	default:
		// Cross-kind equality is defined only through numeric conversion;
		// any other kind mismatch matches no stored value.
		return "", probeEmpty
	}
}

// Aggregate evaluates q's aggregate over the tuples selected by q's
// predicates, folding the scan stream without materializing the selected
// set. It errors if q carries no aggregate.
func (r *Relation) Aggregate(q Query) (AggResult, error) {
	if q.Agg == nil {
		return AggResult{}, fmt.Errorf("relation %s: query %s has no aggregate", r.Name, q)
	}
	return q.Agg.Fold(r.Schema, r.Scan(q))
}

// DistinctOn returns the distinct value combinations over the named
// attributes among the given tuples, in first-appearance order. Tuples with
// a null on any of the attributes are skipped: a null determining-set value
// cannot seed a rewritten query. The returned tuples are fresh projections,
// never aliasing the inputs.
func DistinctOn(s *Schema, tuples []Tuple, attrs []string) []Tuple {
	return DistinctOnSeq(s, FromTuples(tuples), attrs).Collect()
}

// ProjectTuples projects each tuple onto the named attributes of schema s,
// in the given order. QPIAD internally projects the full attribute set and
// trims for the user at the end (Section 4 footnote); this is that trim.
func ProjectTuples(s *Schema, tuples []Tuple, attrs []string) ([]Tuple, *Schema, error) {
	seq, ps, err := ProjectSeq(s, FromTuples(tuples), attrs)
	if err != nil {
		return nil, nil, err
	}
	out := seq.Collect()
	if out == nil {
		// Preserve the historical contract: projection of an empty tuple set
		// is an empty (non-nil) slice.
		out = []Tuple{}
	}
	return out, ps, nil
}

// Sample returns a relation containing n tuples drawn uniformly without
// replacement using rng, deep-copied via Tuple.Clone: a sampled world
// mutated by eval or datagen (e.g. MakeIncomplete nulling attributes) must
// never write through to the source relation's tuples. If n >= Len, a full
// clone is returned.
func (r *Relation) Sample(n int, rng *rand.Rand) *Relation {
	out := New(r.Name+"_sample", r.Schema)
	if n >= len(r.tuples) {
		out.tuples = make([]Tuple, len(r.tuples))
		for i, t := range r.tuples {
			out.tuples[i] = t.Clone()
		}
		return out
	}
	perm := rng.Perm(len(r.tuples))[:n]
	out.tuples = make([]Tuple, 0, n)
	for _, i := range perm {
		out.tuples = append(out.tuples, r.tuples[i].Clone())
	}
	return out
}

// Domain returns the distinct non-null values of the named attribute in
// first-appearance order.
func (r *Relation) Domain(attr string) []Value {
	col, ok := r.Schema.Index(attr)
	if !ok {
		return nil
	}
	seen := make(map[string]bool)
	var out []Value
	for _, t := range r.tuples {
		v := t[col]
		if v.IsNull() {
			continue
		}
		k := v.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out
}

// Stats summarizes one attribute's hash-index statistics — the cheap
// cardinality signals the query planner's greedy join ordering runs on
// (distinct-value counts bound join fan-out, posting-list sizes bound
// per-value match counts). Computed from the same hash index Scan probes,
// so asking for stats costs at most one index build.
type Stats struct {
	// Rows is the relation cardinality.
	Rows int
	// Distinct is the number of distinct non-null values of the attribute.
	Distinct int
	// Nulls is the number of tuples null on the attribute.
	Nulls int
	// MaxPosting is the largest non-null posting list — the worst-case
	// per-value join fan-out.
	MaxPosting int
}

// IndexStats returns the attribute's index statistics; ok is false when the
// attribute is not in the schema. Safe for concurrent use (the index build
// is mutex-guarded); every aggregate is order-independent, so the map
// iteration below cannot leak randomized order into the result.
func (r *Relation) IndexStats(attr string) (Stats, bool) {
	idx := r.index(attr)
	if idx == nil {
		return Stats{}, false
	}
	st := Stats{Rows: len(r.tuples)}
	nullKey := Null().Key()
	for k, list := range idx {
		if k == nullKey {
			st.Nulls = len(list)
			continue
		}
		st.Distinct++
		if len(list) > st.MaxPosting {
			st.MaxPosting = len(list)
		}
	}
	return st, true
}

// IncompleteFraction returns the fraction of tuples containing at least one
// null (the PerInc statistic of Section 5.4; also Table 1's first row).
func (r *Relation) IncompleteFraction() float64 {
	if len(r.tuples) == 0 {
		return 0
	}
	n := 0
	for _, t := range r.tuples {
		if !t.IsComplete() {
			n++
		}
	}
	return float64(n) / float64(len(r.tuples))
}

// NullFraction returns the fraction of tuples null on the named attribute.
func (r *Relation) NullFraction(attr string) float64 {
	col, ok := r.Schema.Index(attr)
	if !ok || len(r.tuples) == 0 {
		return 0
	}
	n := 0
	for _, t := range r.tuples {
		if t[col].IsNull() {
			n++
		}
	}
	return float64(n) / float64(len(r.tuples))
}
