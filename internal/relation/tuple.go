package relation

import "strings"

// Tuple is a row of values, positionally aligned with a Schema.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// IsComplete reports whether the tuple has no null values
// (Definition 1 in the paper).
func (t Tuple) IsComplete() bool {
	for _, v := range t {
		if v.IsNull() {
			return false
		}
	}
	return true
}

// NullCount returns the number of null values in the tuple.
func (t Tuple) NullCount() int {
	n := 0
	for _, v := range t {
		if v.IsNull() {
			n++
		}
	}
	return n
}

// NullAttrs returns the names of attributes on which the tuple is null.
func (t Tuple) NullAttrs(s *Schema) []string {
	var out []string
	for i, v := range t {
		if v.IsNull() {
			out = append(out, s.Attr(i).Name)
		}
	}
	return out
}

// NullCountOn returns how many of the named attributes are null in t.
// The paper ranks only tuples with zero or one null over the query
// constrained attributes; this is the counting primitive for that rule.
func (t Tuple) NullCountOn(s *Schema, names []string) int {
	n := 0
	for _, name := range names {
		if i, ok := s.Index(name); ok && t[i].IsNull() {
			n++
		}
	}
	return n
}

// Key returns a canonical encoding of the whole tuple, usable for duplicate
// detection: the value keys joined by \x1f. Nulls participate (null groups
// with null).
func (t Tuple) Key() string {
	var buf [128]byte
	return string(t.AppendKey(buf[:0]))
}

// AppendKey appends t's canonical key (see Key) to dst and returns the
// extended slice. Appending into a buffer with enough capacity allocates
// nothing.
func (t Tuple) AppendKey(dst []byte) []byte {
	for i, v := range t {
		if i > 0 {
			dst = append(dst, '\x1f')
		}
		dst = v.AppendKey(dst)
	}
	return dst
}

// KeyOn returns a canonical encoding of the tuple restricted to the given
// attribute positions.
func (t Tuple) KeyOn(cols []int) string {
	var buf [128]byte
	return string(t.AppendKeyOn(buf[:0], cols))
}

// AppendKeyOn appends t's canonical key over the given attribute positions
// (see KeyOn) to dst and returns the extended slice.
func (t Tuple) AppendKeyOn(dst []byte, cols []int) []byte {
	for i, c := range cols {
		if i > 0 {
			dst = append(dst, '\x1f')
		}
		dst = t[c].AppendKey(dst)
	}
	return dst
}

// IsCompletionOf reports whether complete tuple t belongs to the set of
// completions C(u) of (possibly incomplete) tuple u: t and u agree on every
// attribute where u is non-null (Definition 1).
func (t Tuple) IsCompletionOf(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range u {
		if u[i].IsNull() {
			continue
		}
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Equal reports whether two tuples are identical position-by-position,
// with null identical to null.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Identical(o[i]) {
			return false
		}
	}
	return true
}

// String renders the tuple as "⟨v1, v2, ...⟩".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "⟨" + strings.Join(parts, ", ") + "⟩"
}
