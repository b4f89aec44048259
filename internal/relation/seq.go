package relation

// This file is the pull-based relational-algebra core. Every operator —
// selection (Relation.Scan), projection (ProjectSeq), duplicate
// elimination (DistinctOnSeq) and the streaming aggregate fold
// (Aggregate.Fold) — produces or consumes a TupleSeq, so a whole plan
// runs tuple-at-a-time without materializing intermediate slices. The
// batch entry points (Select, DistinctOn, ProjectTuples,
// Aggregate.Apply) are thin collectors over the same iterators, proven
// tuple-for-tuple identical (order included) to the pre-iterator
// implementations by the equivalence suite in seq_test.go.
//
// Ownership rules (enforced by the tupleescape analyzer, see DESIGN.md):
//
//   - A tuple yielded by a TupleSeq may alias the relation's backing store.
//     It is valid only for the duration of the yield; a consumer that wants
//     to hold it afterwards must take a copy (Tuple.Clone).
//   - Operators that construct fresh tuples (projection, distinct-on)
//     yield tuples the consumer owns outright.
//   - Close semantics: returning false from yield (breaking out of a
//     range loop) stops the pipeline immediately. Operators hold no locks
//     and own no resources while yielding, so early termination — the
//     PR 3 top-N bound, PR 5 breaker skips, a source's MaxResults
//     truncation — is simply ceasing to pull. Nothing leaks.

// TupleSeq is a pull-based stream of tuples — the same shape as
// iter.Seq[Tuple], defined locally so operators can hang off it as
// methods. Iterate with `for t := range seq`; break to close early.
type TupleSeq func(yield func(Tuple) bool)

// FromTuples adapts a tuple slice to the pipeline. The yielded tuples
// alias the slice's.
func FromTuples(ts []Tuple) TupleSeq {
	return func(yield func(Tuple) bool) {
		for _, t := range ts {
			if !yield(t) {
				return
			}
		}
	}
}

// All streams every tuple of the relation in insertion order. The yielded
// tuples alias the relation's store.
func (r *Relation) All() TupleSeq {
	return FromTuples(r.tuples)
}

// Filter yields only the tuples keep accepts.
func (s TupleSeq) Filter(keep func(Tuple) bool) TupleSeq {
	return func(yield func(Tuple) bool) {
		for t := range s {
			if keep(t) && !yield(t) {
				return
			}
		}
	}
}

// Map yields f(t) for every tuple. f may return its argument unchanged
// (the yielded tuple then keeps its upstream ownership) or a fresh tuple.
func (s TupleSeq) Map(f func(Tuple) Tuple) TupleSeq {
	return func(yield func(Tuple) bool) {
		for t := range s {
			if !yield(f(t)) {
				return
			}
		}
	}
}

// Take yields at most n tuples, closing the upstream early once the quota
// is met. n <= 0 yields nothing.
func (s TupleSeq) Take(n int) TupleSeq {
	return func(yield func(Tuple) bool) {
		if n <= 0 {
			return
		}
		left := n
		for t := range s {
			if !yield(t) {
				return
			}
			left--
			if left == 0 {
				return
			}
		}
	}
}

// Collect materializes the stream. Ownership follows the stream: a
// collected Scan aliases the store (like Select), a collected projection
// does not. Nil when the stream is empty, matching Select.
func (s TupleSeq) Collect() []Tuple {
	var out []Tuple
	for t := range s {
		//lint:allow tupleescape Collect is the documented materialization point; ownership follows the stream's contract
		out = append(out, t)
	}
	return out
}

// Count drains the stream and returns the number of tuples, materializing
// nothing.
func (s TupleSeq) Count() int {
	n := 0
	for range s {
		n++
	}
	return n
}

// DistinctOnSeq streams the distinct value combinations over the named
// attributes, in first-appearance order, as fresh projected tuples the
// consumer owns. Tuples with a null on any of the attributes are skipped:
// a null determining-set value cannot seed a rewritten query. An unknown
// attribute yields an empty stream.
func DistinctOnSeq(s *Schema, seq TupleSeq, attrs []string) TupleSeq {
	return func(yield func(Tuple) bool) {
		cols := make([]int, len(attrs))
		for i, a := range attrs {
			c, ok := s.Index(a)
			if !ok {
				return
			}
			cols[i] = c
		}
		seen := make(map[string]bool)
		// buf is reused across tuples: a combination already seen costs
		// no allocation, only a new one is copied into the map.
		var buf []byte
		for t := range seq {
			null := false
			for _, c := range cols {
				if t[c].IsNull() {
					null = true
					break
				}
			}
			if null {
				continue
			}
			buf = t.AppendKeyOn(buf[:0], cols)
			if seen[string(buf)] {
				continue
			}
			seen[string(buf)] = true
			proj := make(Tuple, len(cols))
			for i, c := range cols {
				proj[i] = t[c]
			}
			if !yield(proj) {
				return
			}
		}
	}
}

// ProjectSeq streams each tuple projected onto the named attributes of
// schema s, in the given order, as fresh tuples the consumer owns. The
// projected schema is returned alongside.
func ProjectSeq(s *Schema, seq TupleSeq, attrs []string) (TupleSeq, *Schema, error) {
	ps, err := s.Project(attrs...)
	if err != nil {
		return nil, nil, err
	}
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		cols[i] = s.MustIndex(a)
	}
	out := func(yield func(Tuple) bool) {
		for t := range seq {
			pt := make(Tuple, len(cols))
			for j, c := range cols {
				pt[j] = t[c]
			}
			if !yield(pt) {
				return
			}
		}
	}
	return out, ps, nil
}
