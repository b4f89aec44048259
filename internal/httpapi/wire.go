package httpapi

import (
	"errors"
	"math"
	"sort"
	"strconv"
	"time"
	"unicode/utf8"

	"qpiad/internal/core"
	"qpiad/internal/relation"
)

// The answer wire encoding. Answers are the bulk of every select body,
// stream and join body, so they are appended by hand into one []byte
// instead of going through encoding/json over a map per answer. A
// rowEncoder is compiled once per response from the output schema and
// projection; after that an answer costs no map, reflection or allocation.
//
// The bytes are exactly the compact output encoding/json gives for the
// equivalent map-typed structs (wire_test.go keeps those as the reference
// and pins the equality with a table and a fuzz target): struct fields in
// declaration order, omitempty fields left out, map keys in sorted order,
// HTML-safe string escapes and ES6 number formatting. The one departure is
// deliberate: a NaN or infinite float, which encoding/json refuses, is
// written as null.

// rowEncoder renders tuples of one schema, under an optional projection, as
// JSON objects keyed by attribute name.
type rowEncoder struct {
	cols []int    // tuple column of each key, in key order
	keys []string // `{"name":` for the first key, `,"name":` for the rest
}

// newRowEncoder compiles the encoder for tuples of s. A non-empty projection
// picks the output attributes; an unknown or repeated one is an error.
func newRowEncoder(s *relation.Schema, projection []string) (*rowEncoder, error) {
	out := s
	if len(projection) > 0 {
		ps, err := s.Project(projection...)
		if err != nil {
			return nil, err
		}
		out = ps
	}
	names := make([]string, out.Len())
	for i := range names {
		names[i] = out.Attr(i).Name
	}
	sort.Strings(names) // encoding/json writes map keys in sorted order
	e := &rowEncoder{cols: make([]int, len(names)), keys: make([]string, len(names))}
	for i, name := range names {
		e.cols[i] = s.MustIndex(name)
		sep := byte(',')
		if i == 0 {
			sep = '{'
		}
		e.keys[i] = string(appendString([]byte{sep}, name)) + ":"
	}
	return e, nil
}

// appendRow appends t as an object keyed by attribute name.
func (e *rowEncoder) appendRow(b []byte, t relation.Tuple) []byte {
	if len(e.cols) == 0 {
		return append(b, "{}"...)
	}
	for i, c := range e.cols {
		b = append(b, e.keys[i]...)
		b = appendValue(b, t[c])
	}
	return append(b, '}')
}

// appendAnswer appends one answer: its values, certainty, confidence and,
// when it has one, its explanation.
func (e *rowEncoder) appendAnswer(b []byte, a *core.Answer) []byte {
	b = append(b, `{"values":`...)
	b = e.appendRow(b, a.Tuple)
	b = append(b, `,"certain":`...)
	b = strconv.AppendBool(b, a.Certain)
	b = append(b, `,"confidence":`...)
	b = appendFloat(b, a.Confidence)
	if a.Explanation != "" {
		b = append(b, `,"explanation":`...)
		b = appendString(b, a.Explanation)
	}
	return append(b, '}')
}

// appendAnswers appends a section of answers as an array; an empty section
// is [], never null.
func (e *rowEncoder) appendAnswers(b []byte, answers []core.Answer) []byte {
	b = append(b, '[')
	for i := range answers {
		if i > 0 {
			b = append(b, ',')
		}
		b = e.appendAnswer(b, &answers[i])
	}
	return append(b, ']')
}

// appendSelect appends the batch /query body of a selection. "degraded"
// marks a result some of whose rewrites failed or were skipped (annotated
// in rewrites_issued), so possible answers may be missing; "stale" marks
// answers served from the answer cache past their freshness bound because
// the source's circuit was open. explain is the marshalled planner section,
// nil when the response carries none.
func (e *rowEncoder) appendSelect(b []byte, query, source string, rs *core.ResultSet, explain []byte) []byte {
	b = append(b, `{"query":`...)
	b = appendString(b, query)
	b = append(b, `,"source":`...)
	b = appendString(b, source)
	b = append(b, `,"certain":`...)
	b = e.appendAnswers(b, rs.Certain)
	b = append(b, `,"possible":`...)
	b = e.appendAnswers(b, rs.Possible)
	if len(rs.Unranked) > 0 {
		b = append(b, `,"unranked":`...)
		b = e.appendAnswers(b, rs.Unranked)
	}
	b = append(b, `,"rewrites_issued":`...)
	if len(rs.Issued) == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range rs.Issued {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendIssued(b, &rs.Issued[i])
		}
		b = append(b, ']')
	}
	b = append(b, `,"rewrites_generated":`...)
	b = strconv.AppendInt(b, int64(rs.Generated), 10)
	b = appendFlag(b, `,"degraded":true`, rs.Degraded)
	b = appendFlag(b, `,"stale":true`, rs.Stale)
	if age := int64(rs.StaleAge / time.Microsecond); age != 0 {
		b = append(b, `,"stale_age_micros":`...)
		b = strconv.AppendInt(b, age, 10)
	}
	if explain != nil {
		b = append(b, `,"planner":`...)
		b = append(b, explain...)
	}
	return append(b, "}\n"...)
}

// appendIssued appends one rewrites_issued entry: the rewrite and its
// precision, and for a failed rewrite its attempts and error.
func appendIssued(b []byte, rq *core.RewrittenQuery) []byte {
	b = append(b, '"')
	b = appendEscaped(b, rq.Query.String())
	b = append(b, " (precision "...)
	b = strconv.AppendFloat(b, rq.Precision, 'f', 3, 64)
	if rq.Err != nil {
		b = append(b, ", failed after "...)
		b = strconv.AppendInt(b, int64(rq.Attempts), 10)
		b = append(b, " attempts: "...)
		b = appendEscaped(b, rq.Err.Error())
	}
	return append(b, `)"`...)
}

// appendAnswerLine appends one NDJSON answer event.
func (e *rowEncoder) appendAnswerLine(b []byte, a *core.Answer, unranked, stale bool) []byte {
	b = append(b, `{"event":"answer","answer":`...)
	b = e.appendAnswer(b, a)
	b = appendFlag(b, `,"unranked":true`, unranked)
	b = appendFlag(b, `,"stale":true`, stale)
	return append(b, "}\n"...)
}

// appendRewriteLine appends one NDJSON rewrite event: the rewrite's outcome,
// with status "ok", "failed", "skipped" (never issued: early stop) or
// "cancelled" (in flight when the top-N bound tripped).
func appendRewriteLine(b []byte, rq *core.RewrittenQuery) []byte {
	status := "ok"
	switch {
	case rq.Err == nil:
	case errors.Is(rq.Err, core.ErrEarlyStop) && rq.Attempts == 0:
		status = "skipped"
	case errors.Is(rq.Err, core.ErrEarlyStop):
		status = "cancelled"
	default:
		status = "failed"
	}
	b = append(b, `{"event":"rewrite","rewrite":{"query":`...)
	b = appendString(b, rq.Query.String())
	b = append(b, `,"precision":`...)
	b = appendFloat(b, rq.Precision)
	b = appendInt(b, `,"attempts":`, rq.Attempts)
	b = appendInt(b, `,"transferred":`, rq.Transferred)
	b = appendInt(b, `,"kept":`, rq.Kept)
	b = append(b, `,"status":"`...)
	b = append(b, status...)
	b = append(b, '"')
	if rq.Err != nil {
		if msg := rq.Err.Error(); msg != "" {
			b = append(b, `,"error":`...)
			b = appendString(b, msg)
		}
	}
	return append(b, "}}\n"...)
}

// appendSummaryLine appends the NDJSON summary event that closes a stream.
func appendSummaryLine(b []byte, sum *core.StreamSummary) []byte {
	rs := sum.Result
	b = append(b, `{"event":"summary","summary":{"query":`...)
	b = appendString(b, rs.Query.String())
	b = append(b, `,"source":`...)
	b = appendString(b, rs.Source)
	b = appendInt(b, `,"certain":`, len(rs.Certain))
	b = appendInt(b, `,"possible":`, len(rs.Possible))
	b = appendInt(b, `,"unranked":`, len(rs.Unranked))
	b = appendInt(b, `,"rewrites_generated":`, rs.Generated)
	b = appendInt(b, `,"rewrites_issued":`, len(rs.Issued))
	b = appendFlag(b, `,"degraded":true`, rs.Degraded)
	b = appendFlag(b, `,"early_stopped":true`, sum.EarlyStopped)
	if sum.SkippedRewrites != 0 {
		b = appendInt(b, `,"skipped_rewrites":`, sum.SkippedRewrites)
	}
	if sum.CancelledRewrites != 0 {
		b = appendInt(b, `,"cancelled_rewrites":`, sum.CancelledRewrites)
	}
	if sum.EstSavedTuples != 0 {
		b = append(b, `,"est_saved_tuples":`...)
		b = appendFloat(b, sum.EstSavedTuples)
	}
	b = appendFlag(b, `,"stale":true`, rs.Stale)
	if age := int64(rs.StaleAge / time.Microsecond); age != 0 {
		b = append(b, `,"stale_age_micros":`...)
		b = strconv.AppendInt(b, age, 10)
	}
	return append(b, "}}\n"...)
}

// appendJoin appends the POST /join body; left and right render the two
// sides' tuples.
func appendJoin(b []byte, left, right *rowEncoder, leftSource, rightSource string, res *core.JoinResult) []byte {
	b = append(b, `{"left_source":`...)
	b = appendString(b, leftSource)
	b = append(b, `,"right_source":`...)
	b = appendString(b, rightSource)
	b = append(b, `,"answers":[`...)
	for i := range res.Answers {
		a := &res.Answers[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"left":`...)
		b = left.appendRow(b, a.Left)
		b = append(b, `,"right":`...)
		b = right.appendRow(b, a.Right)
		b = append(b, `,"join_value":`...)
		b = appendValue(b, a.JoinValue)
		b = append(b, `,"certain":`...)
		b = strconv.AppendBool(b, a.Certain)
		b = append(b, `,"confidence":`...)
		b = appendFloat(b, a.Confidence)
		b = append(b, '}')
	}
	b = appendInt(b, `],"pairs_issued":`, len(res.Pairs))
	b = appendFlag(b, `,"degraded":true`, res.Degraded)
	if res.EstSavedTuples != 0 {
		b = append(b, `,"est_saved_tuples":`...)
		b = appendFloat(b, res.EstSavedTuples)
	}
	return append(b, "}\n"...)
}

// appendFlag appends field, a `,"name":true` member, when set: the
// omitempty rendering of a bool.
func appendFlag(b []byte, field string, set bool) []byte {
	if set {
		b = append(b, field...)
	}
	return b
}

// appendInt appends key, a `,"name":` prefix, and n.
func appendInt(b []byte, key string, n int) []byte {
	b = append(b, key...)
	return strconv.AppendInt(b, int64(n), 10)
}

// appendValue appends one attribute value with its native JSON type: null,
// number, bool or string.
func appendValue(b []byte, v relation.Value) []byte {
	switch v.Kind() {
	case relation.KindNull:
		return append(b, "null"...)
	case relation.KindInt:
		return strconv.AppendInt(b, v.IntVal(), 10)
	case relation.KindFloat:
		return appendFloat(b, v.FloatVal())
	case relation.KindBool:
		return strconv.AppendBool(b, v.BoolVal())
	default:
		return appendString(b, v.String())
	}
}

// appendFloat appends f as encoding/json formats a float64: the shortest
// decimal that reads back as f, in 'e' notation below 1e-6 and from 1e21
// with the exponent unpadded (1e-7, not 1e-07). NaN and ±Inf are appended
// as null.
func appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString appends s as a quoted JSON string (see appendEscaped).
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	b = appendEscaped(b, s)
	return append(b, '"')
}

// escapeASCII marks the ASCII bytes a JSON string does not carry verbatim:
// control bytes, the quote and backslash, and the HTML-unsafe <, > and &.
var escapeASCII = func() (t [utf8.RuneSelf]bool) {
	for c := 0; c < 0x20; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = true
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendEscaped appends the body of s as a JSON string, without quotes, as
// encoding/json escapes it: '"' and '\' backslashed; \b, \f, \n, \r and \t
// short; other control bytes and <, > and & as \u00XX; U+2028 and U+2029 as
// \u2028 and \u2029; each byte of invalid UTF-8 as \ufffd.
func appendEscaped(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if !escapeASCII[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}
