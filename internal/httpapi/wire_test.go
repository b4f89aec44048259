package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qpiad/internal/core"
	"qpiad/internal/relation"
	"qpiad/internal/sqlish"
)

// The reference wire forms: the map-typed structs and converters the server
// rendered answers with before the answer encoder (wire.go). encoding/json
// over them is the byte-level reference the encoder must match, and the
// HTTP tests decode responses into them.

// answerJSON is one returned tuple.
type answerJSON struct {
	Values      map[string]any `json:"values"`
	Certain     bool           `json:"certain"`
	Confidence  float64        `json:"confidence"`
	Explanation string         `json:"explanation,omitempty"`
}

// queryResponse is the /query output for selections.
type queryResponse struct {
	Query          string       `json:"query"`
	Source         string       `json:"source"`
	Certain        []answerJSON `json:"certain"`
	Possible       []answerJSON `json:"possible"`
	Unranked       []answerJSON `json:"unranked,omitempty"`
	Rewrites       []string     `json:"rewrites_issued"`
	Generated      int          `json:"rewrites_generated"`
	Degraded       bool         `json:"degraded,omitempty"`
	Stale          bool         `json:"stale,omitempty"`
	StaleAgeMicros int64        `json:"stale_age_micros,omitempty"`
}

// streamEventJSON is one NDJSON line of a streamed query. Event is "answer",
// "rewrite" or "summary"; exactly the matching field is set.
type streamEventJSON struct {
	Event    string         `json:"event"`
	Answer   *answerJSON    `json:"answer,omitempty"`
	Unranked bool           `json:"unranked,omitempty"`
	Stale    bool           `json:"stale,omitempty"`
	Rewrite  *rewriteJSON   `json:"rewrite,omitempty"`
	Summary  *streamSumJSON `json:"summary,omitempty"`
}

// rewriteJSON reports one chosen rewrite's outcome on the stream.
type rewriteJSON struct {
	Query       string  `json:"query"`
	Precision   float64 `json:"precision"`
	Attempts    int     `json:"attempts"`
	Transferred int     `json:"transferred"`
	Kept        int     `json:"kept"`
	Status      string  `json:"status"`
	Error       string  `json:"error,omitempty"`
}

// streamSumJSON is the final summary line of a streamed query.
type streamSumJSON struct {
	Query             string  `json:"query"`
	Source            string  `json:"source"`
	Certain           int     `json:"certain"`
	Possible          int     `json:"possible"`
	Unranked          int     `json:"unranked"`
	Generated         int     `json:"rewrites_generated"`
	Issued            int     `json:"rewrites_issued"`
	Degraded          bool    `json:"degraded,omitempty"`
	EarlyStopped      bool    `json:"early_stopped,omitempty"`
	SkippedRewrites   int     `json:"skipped_rewrites,omitempty"`
	CancelledRewrites int     `json:"cancelled_rewrites,omitempty"`
	EstSavedTuples    float64 `json:"est_saved_tuples,omitempty"`
	Stale             bool    `json:"stale,omitempty"`
	StaleAgeMicros    int64   `json:"stale_age_micros,omitempty"`
}

// joinAnswerJSON is one joined pair on the wire.
type joinAnswerJSON struct {
	Left       map[string]any `json:"left"`
	Right      map[string]any `json:"right"`
	JoinValue  any            `json:"join_value"`
	Certain    bool           `json:"certain"`
	Confidence float64        `json:"confidence"`
}

// joinResponse is the POST /join output.
type joinResponse struct {
	LeftSource     string           `json:"left_source"`
	RightSource    string           `json:"right_source"`
	Answers        []joinAnswerJSON `json:"answers"`
	PairsIssued    int              `json:"pairs_issued"`
	Degraded       bool             `json:"degraded,omitempty"`
	EstSavedTuples float64          `json:"est_saved_tuples,omitempty"`
}

func refValue(v relation.Value) any {
	switch v.Kind() {
	case relation.KindNull:
		return nil
	case relation.KindInt:
		return v.IntVal()
	case relation.KindFloat:
		return v.FloatVal()
	case relation.KindBool:
		return v.BoolVal()
	default:
		return v.String()
	}
}

// refRow renders a tuple as an attribute-keyed map, restricted to the
// projection when one is given.
func refRow(s *relation.Schema, projection []string, t relation.Tuple) map[string]any {
	names := projection
	if len(names) == 0 {
		for c := 0; c < s.Len(); c++ {
			names = append(names, s.Attr(c).Name)
		}
	}
	vals := make(map[string]any, len(names))
	for _, n := range names {
		vals[n] = refValue(t[s.MustIndex(n)])
	}
	return vals
}

func refAnswer(s *relation.Schema, projection []string, a core.Answer) answerJSON {
	return answerJSON{
		Values:      refRow(s, projection, a.Tuple),
		Certain:     a.Certain,
		Confidence:  a.Confidence,
		Explanation: a.Explanation,
	}
}

func refAnswers(s *relation.Schema, projection []string, answers []core.Answer) []answerJSON {
	out := make([]answerJSON, len(answers))
	for i, a := range answers {
		out[i] = refAnswer(s, projection, a)
	}
	return out
}

func refSelect(query, source string, s *relation.Schema, projection []string, rs *core.ResultSet) queryResponse {
	resp := queryResponse{
		Query:          query,
		Source:         source,
		Certain:        refAnswers(s, projection, rs.Certain),
		Possible:       refAnswers(s, projection, rs.Possible),
		Unranked:       refAnswers(s, projection, rs.Unranked),
		Generated:      rs.Generated,
		Degraded:       rs.Degraded,
		Stale:          rs.Stale,
		StaleAgeMicros: int64(rs.StaleAge / time.Microsecond),
	}
	for _, rq := range rs.Issued {
		if rq.Err != nil {
			resp.Rewrites = append(resp.Rewrites, fmt.Sprintf("%s (precision %.3f, failed after %d attempts: %v)",
				rq.Query, rq.Precision, rq.Attempts, rq.Err))
			continue
		}
		resp.Rewrites = append(resp.Rewrites, fmt.Sprintf("%s (precision %.3f)", rq.Query, rq.Precision))
	}
	return resp
}

func refRewrite(rq core.RewrittenQuery) *rewriteJSON {
	out := &rewriteJSON{
		Query:       rq.Query.String(),
		Precision:   rq.Precision,
		Attempts:    rq.Attempts,
		Transferred: rq.Transferred,
		Kept:        rq.Kept,
		Status:      "ok",
	}
	switch {
	case rq.Err == nil:
	case errors.Is(rq.Err, core.ErrEarlyStop) && rq.Attempts == 0:
		out.Status, out.Error = "skipped", rq.Err.Error()
	case errors.Is(rq.Err, core.ErrEarlyStop):
		out.Status, out.Error = "cancelled", rq.Err.Error()
	default:
		out.Status, out.Error = "failed", rq.Err.Error()
	}
	return out
}

func refSummary(sum *core.StreamSummary) *streamSumJSON {
	rs := sum.Result
	return &streamSumJSON{
		Query:             rs.Query.String(),
		Source:            rs.Source,
		Certain:           len(rs.Certain),
		Possible:          len(rs.Possible),
		Unranked:          len(rs.Unranked),
		Generated:         rs.Generated,
		Issued:            len(rs.Issued),
		Degraded:          rs.Degraded,
		EarlyStopped:      sum.EarlyStopped,
		SkippedRewrites:   sum.SkippedRewrites,
		CancelledRewrites: sum.CancelledRewrites,
		EstSavedTuples:    sum.EstSavedTuples,
		Stale:             rs.Stale,
		StaleAgeMicros:    int64(rs.StaleAge / time.Microsecond),
	}
}

// refEvent is the reference NDJSON for one stream event: one line per
// answer of a run, or the rewrite's or the summary's line.
func refEvent(s *relation.Schema, projection []string, ev core.StreamEvent) []streamEventJSON {
	switch ev.Kind {
	case core.StreamEventAnswer:
		lines := make([]streamEventJSON, len(ev.Answers))
		for i, a := range ev.Answers {
			ref := refAnswer(s, projection, a)
			lines[i] = streamEventJSON{Event: "answer", Answer: &ref, Unranked: ev.Unranked, Stale: ev.Stale}
		}
		return lines
	case core.StreamEventRewrite:
		return []streamEventJSON{{Event: "rewrite", Rewrite: refRewrite(*ev.Rewrite)}}
	default:
		return []streamEventJSON{{Event: "summary", Summary: refSummary(ev.Summary)}}
	}
}

func refJoin(left, right *relation.Schema, leftSource, rightSource string, res *core.JoinResult) joinResponse {
	resp := joinResponse{
		LeftSource:     leftSource,
		RightSource:    rightSource,
		Answers:        make([]joinAnswerJSON, 0, len(res.Answers)),
		PairsIssued:    len(res.Pairs),
		Degraded:       res.Degraded,
		EstSavedTuples: res.EstSavedTuples,
	}
	for _, a := range res.Answers {
		resp.Answers = append(resp.Answers, joinAnswerJSON{
			Left:       refRow(left, nil, a.Left),
			Right:      refRow(right, nil, a.Right),
			JoinValue:  refValue(a.JoinValue),
			Certain:    a.Certain,
			Confidence: a.Confidence,
		})
	}
	return resp
}

// refBody is a select or join body as the server used to write it (an
// indented encoding/json document), compacted and newline-terminated.
func refBody(t testing.TB, v any) []byte {
	t.Helper()
	var indented bytes.Buffer
	enc := json.NewEncoder(&indented)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	var out bytes.Buffer
	if err := json.Compact(&out, indented.Bytes()); err != nil {
		t.Fatalf("reference compact: %v", err)
	}
	return append(out.Bytes(), '\n')
}

// refLine is an NDJSON line as the server used to write it.
func refLine(t testing.TB, ev streamEventJSON) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ev); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return buf.Bytes()
}

// refLines is refLine over each of evs, concatenated.
func refLines(t testing.TB, evs []streamEventJSON) []byte {
	t.Helper()
	var out []byte
	for _, ev := range evs {
		out = append(out, refLine(t, ev)...)
	}
	return out
}

// sameWire fails unless got equals want byte for byte and is valid JSON
// (one document, or one per line for NDJSON).
func sameWire(t testing.TB, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Errorf("%s:\n got %s\nwant %s", what, got, want)
	}
	for _, doc := range bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n")) {
		if !json.Valid(doc) {
			t.Errorf("%s: invalid JSON %s", what, doc)
		}
	}
}

// wireSchema has one attribute of every value kind; the names sort in a
// different order than they are declared.
var wireSchema = relation.MustSchema(
	relation.Attribute{Name: "name", Kind: relation.KindString},
	relation.Attribute{Name: "id", Kind: relation.KindInt},
	relation.Attribute{Name: "price", Kind: relation.KindFloat},
	relation.Attribute{Name: "certified", Kind: relation.KindBool},
	relation.Attribute{Name: "Note <&>", Kind: relation.KindString},
)

// Strings at the escaping boundaries, and floats at the format boundaries.
var (
	wireStrings = []string{
		"", "plain", `quote " and backslash \`, "ctl \x00\x01\x08\x0c\n\r\t\x1f\x7f",
		"<html> & more", "Honda ⇒ Accord", "line\u2028para\u2029end",
		"bad \xff utf8 \xe2\x82", "snowman ☃ and 😀",
	}
	wireFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, 1e-6, 1e-7, -1e-7, 9.99e-7,
		123456.789, 1e20, 1e21, -1e21, 1.5e300, 5e-324, math.MaxFloat64, -math.MaxFloat64,
	}
)

// wireTuples covers every kind, null in every column and the boundary
// strings and floats.
func wireTuples() []relation.Tuple {
	var ts []relation.Tuple
	for i, s := range wireStrings {
		f := wireFloats[i%len(wireFloats)]
		ts = append(ts, relation.Tuple{
			relation.String(s), relation.Int(int64(i) - 4), relation.Float(f),
			relation.Bool(i%2 == 0), relation.String(wireStrings[len(wireStrings)-1-i]),
		})
	}
	for _, f := range wireFloats {
		ts = append(ts, relation.Tuple{
			relation.Null(), relation.Int(math.MinInt64), relation.Float(f), relation.Null(), relation.Null(),
		})
	}
	ts = append(ts, relation.Tuple{
		relation.String("x"), relation.Null(), relation.Null(), relation.Bool(false), relation.String(""),
	}, relation.Tuple{
		relation.Null(), relation.Int(math.MaxInt64), relation.Null(), relation.Null(), relation.Null(),
	})
	return ts
}

func wireAnswers(certain bool) []core.Answer {
	var out []core.Answer
	for i, t := range wireTuples() {
		a := core.Answer{Tuple: t, Certain: certain, Confidence: 1}
		if !certain {
			a.Confidence = wireFloats[i%len(wireFloats)]
			a.Explanation = wireStrings[i%len(wireStrings)]
		}
		out = append(out, a)
	}
	return out
}

func wireQuery(v relation.Value) relation.Query {
	return relation.Query{Relation: "cars", Preds: []relation.Predicate{
		relation.Eq("name", v), {Attr: "price", Op: relation.OpLt, Value: relation.Float(5000)},
	}}
}

// wireIssued has a rewrite of every outcome, with an escape-heavy error.
func wireIssued() []core.RewrittenQuery {
	return []core.RewrittenQuery{
		{Query: wireQuery(relation.String("Honda ⇒ <Accord>")), Precision: 0.8125, Attempts: 1, Transferred: 40, Kept: 12},
		{Query: wireQuery(relation.Int(7)), Precision: 1.0 / 3, Attempts: 3, Err: errors.New("source cars: transient \"fault\" <&> \u2028 \xff")},
		{Query: wireQuery(relation.Null()), Precision: 0.25, Err: fmt.Errorf("top-N met: %w", core.ErrEarlyStop)},
		{Query: wireQuery(relation.Bool(true)), Precision: 0.0005, Attempts: 1, Transferred: 3, Err: core.ErrEarlyStop},
		{Query: wireQuery(relation.Float(1e-7)), Precision: 0, Attempts: 2, Err: errors.New("")},
	}
}

func TestWireSelectMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name       string
		projection []string
		rs         core.ResultSet
	}{
		{name: "empty sections, nil issued", rs: core.ResultSet{}},
		{name: "every kind", rs: core.ResultSet{
			Certain: wireAnswers(true), Possible: wireAnswers(false), Unranked: wireAnswers(false),
			Issued: wireIssued(), Generated: 17, Degraded: true,
		}},
		{name: "projection", projection: []string{"price", "Note <&>", "name"}, rs: core.ResultSet{
			Certain: wireAnswers(true), Possible: wireAnswers(false), Issued: wireIssued()[:1], Generated: 1,
		}},
		{name: "stale", rs: core.ResultSet{
			Certain: wireAnswers(true)[:2], Possible: []core.Answer{}, Issued: []core.RewrittenQuery{},
			Stale: true, StaleAge: 1500 * time.Millisecond,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := newRowEncoder(wireSchema, tc.projection)
			if err != nil {
				t.Fatal(err)
			}
			const query = "σ[name = <x> & \"y\"](cars)"
			got := enc.appendSelect(nil, []byte(query), "cars", &tc.rs)
			want := refBody(t, refSelect(query, "cars", wireSchema, tc.projection, &tc.rs))
			sameWire(t, "select body", got, want)
		})
	}
}

func TestWireStreamLinesMatchReference(t *testing.T) {
	for _, projection := range [][]string{nil, {"id", "certified"}} {
		enc, err := newRowEncoder(wireSchema, projection)
		if err != nil {
			t.Fatal(err)
		}
		var events []core.StreamEvent
		for i, a := range append(wireAnswers(true), wireAnswers(false)...) {
			events = append(events, core.StreamEvent{Kind: core.StreamEventAnswer, Answers: []core.Answer{a}, Unranked: i%3 == 1, Stale: i%4 == 2})
		}
		events = append(events, core.StreamEvent{Kind: core.StreamEventAnswer, Answers: wireAnswers(false), Unranked: true})
		for _, rq := range wireIssued() {
			events = append(events, core.StreamEvent{Kind: core.StreamEventRewrite, Rewrite: &rq})
		}
		full := &core.ResultSet{
			Query: wireQuery(relation.String("a\"b")), Source: "cars <1>",
			Certain: wireAnswers(true), Possible: wireAnswers(false)[:3], Issued: wireIssued(),
			Generated: 9, Degraded: true, Stale: true, StaleAge: 3 * time.Second,
		}
		events = append(events,
			core.StreamEvent{Kind: core.StreamEventSummary, Summary: &core.StreamSummary{Result: &core.ResultSet{}}},
			core.StreamEvent{Kind: core.StreamEventSummary, Summary: &core.StreamSummary{
				Result: full, EarlyStopped: true, SkippedRewrites: 2, CancelledRewrites: 1, EstSavedTuples: 41.5,
			}})
		for _, ev := range events {
			var got []byte
			switch ev.Kind {
			case core.StreamEventAnswer:
				for i := range ev.Answers {
					got = enc.appendAnswerLine(got, &ev.Answers[i], ev.Unranked, ev.Stale)
				}
			case core.StreamEventRewrite:
				got = appendRewriteLine(nil, ev.Rewrite)
			default:
				got = appendSummaryLine(nil, ev.Summary)
			}
			sameWire(t, "stream line", got, refLines(t, refEvent(wireSchema, projection, ev)))
		}
	}
}

// refQueryText is relation.Query.String as it was written with fmt; the
// relation package pins String to the same reference.
func refQueryText(q relation.Query) string {
	parts := make([]string, len(q.Preds))
	for i, p := range q.Preds {
		switch p.Op {
		case relation.OpIsNull, relation.OpNotNull:
			parts[i] = p.Attr + " " + p.Op.String()
		case relation.OpBetween:
			parts[i] = fmt.Sprintf("%s between %s and %s", p.Attr, p.Value, p.High)
		default:
			parts[i] = fmt.Sprintf("%s%s%s", p.Attr, p.Op, p.Value)
		}
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

// TestWireQueryTextMatchesReference renders rewrites whose values need
// every JSON escape (quote, backslash, <, &, control bytes, U+2028, invalid
// UTF-8), and one whose text outgrows the render buffer, through the
// rewrites_issued entry, the rewrite and summary lines and the select
// body's "query". Each must be encoding/json of the fmt reference text.
func TestWireQueryTextMatchesReference(t *testing.T) {
	values := []relation.Value{relation.Null(), relation.Int(-7), relation.Bool(true),
		relation.Float(math.Copysign(0, -1)), relation.Float(math.NaN()), relation.Float(math.Inf(-1)), relation.Float(1e21),
		relation.String(strings.Repeat("<&\"\u2028", 80))}
	for _, s := range wireStrings {
		values = append(values, relation.String(s))
	}
	enc, err := newRowEncoder(wireSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		q := relation.Query{Relation: wireStrings[i%len(wireStrings)], Preds: []relation.Predicate{
			relation.Eq("name", v),
			relation.Between("price", v, relation.String("z\"<")),
			relation.IsNull("Note <&>"),
		}}
		text := refQueryText(q)
		for _, rq := range []core.RewrittenQuery{
			{Query: q, Precision: 0.8125, Attempts: 1, Transferred: 4, Kept: 2},
			{Query: q, Precision: 1.0 / 3, Attempts: 2, Err: errors.New("fault \"<&>\"")},
		} {
			issued := fmt.Sprintf("%s (precision %.3f)", text, rq.Precision)
			if rq.Err != nil {
				issued = fmt.Sprintf("%s (precision %.3f, failed after %d attempts: %v)", text, rq.Precision, rq.Attempts, rq.Err)
			}
			want, err := json.Marshal(issued)
			if err != nil {
				t.Fatal(err)
			}
			sameWire(t, "rewrites_issued entry", appendIssued(nil, &rq), want)

			ref := refRewrite(rq)
			ref.Query = text
			sameWire(t, "rewrite line", appendRewriteLine(nil, &rq), refLine(t, streamEventJSON{Event: "rewrite", Rewrite: ref}))
		}
		sum := &core.StreamSummary{Result: &core.ResultSet{Query: q, Source: "cars"}}
		refSum := refSummary(sum)
		refSum.Query = text
		sameWire(t, "summary line", appendSummaryLine(nil, sum), refLine(t, streamEventJSON{Event: "summary", Summary: refSum}))

		rs := &core.ResultSet{Certain: wireAnswers(true)[:2]}
		sameWire(t, "select body", enc.appendSelect(nil, q.AppendString(nil), "cars", rs),
			refBody(t, refSelect(text, "cars", wireSchema, nil, rs)))
	}
}

func TestWireJoinMatchesReference(t *testing.T) {
	right := relation.MustSchema(
		relation.Attribute{Name: "model", Kind: relation.KindString},
		relation.Attribute{Name: "complaints", Kind: relation.KindInt},
	)
	leftEnc, err := newRowEncoder(wireSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	rightEnc, err := newRowEncoder(right, nil)
	if err != nil {
		t.Fatal(err)
	}
	var answers []core.JoinAnswer
	for i, lt := range wireTuples() {
		rt := relation.Tuple{relation.String(wireStrings[i%len(wireStrings)]), relation.Int(int64(i))}
		if i%3 == 0 {
			rt[1] = relation.Null()
		}
		answers = append(answers, core.JoinAnswer{
			Left: lt, Right: rt, JoinValue: lt[i%len(lt)], Certain: i%2 == 0, Confidence: wireFloats[i%len(wireFloats)],
		})
	}
	for _, res := range []core.JoinResult{
		{},
		{Answers: answers, Pairs: make([]core.QueryPair, 4), Degraded: true, EstSavedTuples: 1e-7},
	} {
		got := appendJoin(nil, leftEnc, rightEnc, "cars", "complaints & <co>", &res)
		want := refBody(t, refJoin(wireSchema, right, "cars", "complaints & <co>", &res))
		sameWire(t, "join body", got, want)
	}
}

// TestWireNonFiniteIsNull checks the one deliberate departure from
// encoding/json: NaN and ±Inf, which it refuses, are written as null.
func TestWireNonFiniteIsNull(t *testing.T) {
	enc, err := newRowEncoder(wireSchema, []string{"price"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := core.Answer{Tuple: relation.Tuple{relation.Null(), relation.Null(), relation.Float(f), relation.Null(), relation.Null()}, Confidence: f}
		got := enc.appendAnswerLine(nil, &a, false, false)
		want := `{"event":"answer","answer":{"values":{"price":null},"certain":false,"confidence":null}}` + "\n"
		if string(got) != want {
			t.Errorf("%v: got %s want %s", f, got, want)
		}
		b, err := jsonFloat(f).MarshalJSON()
		if err != nil || string(b) != "null" {
			t.Errorf("jsonFloat(%v) = %s, %v", f, b, err)
		}
	}
}

func TestRowEncoderRejectsRepeatedProjection(t *testing.T) {
	if _, err := newRowEncoder(wireSchema, []string{"id", "id"}); err == nil {
		t.Error("repeated projection attribute accepted")
	}
}

// FuzzAnswerWire checks the encoder against encoding/json over the
// reference forms on arbitrary strings (as values, explanations, attribute
// names, query constants and errors), floats, ints and flags.
func FuzzAnswerWire(f *testing.F) {
	f.Add("", 0.0, int64(0), uint8(0))
	f.Add(`"\<>&`+"\u2028\u2029\xff⇒\x00", 1e-7, int64(math.MaxInt64), uint8(0xff))
	f.Add("Accord", 1e21, int64(math.MinInt64), uint8(0x15))
	f.Add("a\xe2\x82b", -math.MaxFloat64, int64(-1), uint8(0x2a))
	f.Fuzz(func(t *testing.T, s string, x float64, i int64, flags uint8) {
		name := "attr " + s // never empty, never equal to the other names
		schema, err := relation.NewSchema(
			relation.Attribute{Name: "s", Kind: relation.KindString},
			relation.Attribute{Name: name, Kind: relation.KindFloat},
			relation.Attribute{Name: "i", Kind: relation.KindInt},
			relation.Attribute{Name: "b", Kind: relation.KindBool},
			relation.Attribute{Name: "n", Kind: relation.KindString},
		)
		if err != nil {
			t.Skip(err)
		}
		tuple := relation.Tuple{relation.String(s), relation.Float(x), relation.Int(i), relation.Bool(flags&1 != 0), relation.Null()}
		var projection []string
		if flags&16 != 0 {
			projection = []string{"i", name, "s"}
		}
		enc, err := newRowEncoder(schema, projection)
		if err != nil {
			t.Fatal(err)
		}
		a := core.Answer{Tuple: tuple, Certain: flags&2 != 0, Confidence: x, Explanation: s}
		rq := core.RewrittenQuery{
			Query:     relation.Query{Relation: "cars", Preds: []relation.Predicate{relation.Eq(name, relation.String(s))}},
			Precision: x, Attempts: int(i % 5), Transferred: int(i % 1000),
		}
		if flags&32 != 0 {
			rq.Err = errors.New(s)
		}
		rs := core.ResultSet{Query: rq.Query, Source: s, Certain: []core.Answer{a}, Issued: []core.RewrittenQuery{rq}, Degraded: flags&64 != 0}
		if flags&4 != 0 {
			rs.Unranked = []core.Answer{a}
		}
		sum := &core.StreamSummary{Result: &rs, EstSavedTuples: x}
		join := core.JoinResult{Answers: []core.JoinAnswer{{Left: tuple, Right: tuple, JoinValue: tuple[int(flags)%len(tuple)], Confidence: x}}}
		joinEnc, err := newRowEncoder(schema, nil)
		if err != nil {
			t.Fatal(err)
		}

		unranked, stale := flags&4 != 0, flags&8 != 0
		outputs := [][]byte{
			enc.appendAnswerLine(nil, &a, unranked, stale),
			appendRewriteLine(nil, &rq),
			appendSummaryLine(nil, sum),
			enc.appendSelect(nil, []byte(s), s, &rs),
			appendJoin(nil, joinEnc, joinEnc, s, s, &join),
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			// encoding/json refuses these; the encoder writes null.
			for _, out := range outputs {
				for _, doc := range bytes.Split(bytes.TrimSuffix(out, []byte("\n")), []byte("\n")) {
					if !json.Valid(doc) {
						t.Fatalf("invalid JSON %q", doc)
					}
				}
			}
			return
		}
		refs := [][]byte{
			refLines(t, refEvent(schema, projection, core.StreamEvent{Kind: core.StreamEventAnswer, Answers: []core.Answer{a}, Unranked: unranked, Stale: stale})),
			refLines(t, refEvent(schema, projection, core.StreamEvent{Kind: core.StreamEventRewrite, Rewrite: &rq})),
			refLines(t, refEvent(schema, projection, core.StreamEvent{Kind: core.StreamEventSummary, Summary: sum})),
			refBody(t, refSelect(s, s, schema, projection, &rs)),
			refBody(t, refJoin(schema, schema, s, s, &join)),
		}
		for k := range outputs {
			sameWire(t, fmt.Sprintf("output %d", k), outputs[k], refs[k])
		}
	})
}

// The byte-level contracts against the reference forms over HTTP: select
// and join bodies are the compacted reference bodies and NDJSON lines are
// the reference lines, for the same mediator results.

func postJSON(t *testing.T, url string, body any) []byte {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", raw, resp.StatusCode, out)
	}
	return out
}

// parseFor parses sql and resolves it against its source's schema.
func parseFor(t *testing.T, med *core.Mediator, sql string) (*sqlish.Statement, *relation.Schema) {
	t.Helper()
	st, err := sqlish.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	src, ok := med.Source(st.Query.Relation)
	if !ok {
		t.Fatalf("no source %q", st.Query.Relation)
	}
	if err := st.CoerceTypes(src.Schema()); err != nil {
		t.Fatal(err)
	}
	return st, src.Schema()
}

func TestSelectBodiesMatchReferenceOverHTTP(t *testing.T) {
	med := testMediator(t, core.Config{Alpha: 0, K: 10})
	srv := httptest.NewServer(New(med))
	t.Cleanup(srv.Close)
	for _, sql := range []string{
		"SELECT * FROM cars WHERE body_style = 'Convt'",
		"SELECT make, model FROM cars WHERE body_style = 'Convt'",
		"SELECT * FROM cars WHERE body_style = 'Convt' ORDER BY price DESC LIMIT 3",
		"SELECT * FROM cars WHERE make = 'Honda' AND price < 9000 LIMIT 20",
		"SELECT * FROM cars WHERE model = 'NoSuchModel'",
	} {
		got := postJSON(t, srv.URL+"/query", map[string]any{"sql": sql, "no_cache": true})

		// The reference replays the handler: query, ORDER BY, LIMIT, then
		// projection of the result set.
		st, schema := parseFor(t, med, sql)
		cfg := med.Config()
		cfg.NoCache = true
		rs, err := med.QuerySelectWithCtx(context.Background(), cfg, st.Query.Relation, st.Query)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Order) > 0 {
			cmp, err := st.Comparator(schema)
			if err != nil {
				t.Fatal(err)
			}
			rs.SortBy(cmp)
		}
		if st.Limit > 0 {
			rs.Certain = capAnswers(rs.Certain, st.Limit)
			rs.Possible = capAnswers(rs.Possible, st.Limit)
			rs.Unranked = capAnswers(rs.Unranked, st.Limit)
		}
		if len(st.Projection) > 0 {
			if rs, schema, err = rs.Project(schema, st.Projection); err != nil {
				t.Fatal(err)
			}
		}
		sameWire(t, sql, got, refBody(t, refSelect(st.Query.String(), st.Query.Relation, schema, nil, rs)))
	}
}

func TestStreamLinesMatchReferenceOverHTTP(t *testing.T) {
	med := testMediator(t, core.Config{Alpha: 0, K: 10})
	srv := httptest.NewServer(New(med))
	t.Cleanup(srv.Close)
	for _, sql := range []string{
		"SELECT * FROM cars WHERE body_style = 'Convt'",
		"SELECT make, price FROM cars WHERE make = 'Honda' AND price < 9000",
	} {
		got := postJSON(t, srv.URL+"/query?stream=1", map[string]any{"sql": sql, "no_cache": true})

		st, schema := parseFor(t, med, sql)
		cfg := med.Config()
		cfg.NoCache = true
		events, err := med.SelectStreamWith(context.Background(), cfg, st.Query.Relation, st.Query)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for ev := range events {
			want = append(want, refLines(t, refEvent(schema, st.Projection, ev))...)
		}
		sameWire(t, sql, got, want)
	}
}

// TestJoinBodyMatchesReferenceOverHTTP checks the /join body against the
// reference encoding of the same join. A body without "k" or "alpha" takes
// the mediator's K and α, so a K=2 mediator issues at most two query pairs.
func TestJoinBodyMatchesReferenceOverHTTP(t *testing.T) {
	left, right := "SELECT * FROM cars WHERE body_style = 'Convt'", "SELECT * FROM cars WHERE certified = 'yes'"
	for _, tc := range []struct {
		name string
		cfg  core.Config
		k    int // the body's "k"; 0 omits it
		spec core.JoinSpec
	}{
		{"k override", core.Config{Alpha: 0, K: 10}, 4, core.JoinSpec{K: 4}},
		{"mediator defaults", core.Config{Alpha: 0.5, K: 2}, 0, core.JoinSpec{Alpha: 0.5, K: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			med := testMediator(t, tc.cfg)
			srv := httptest.NewServer(New(med))
			t.Cleanup(srv.Close)
			body := map[string]any{"left_sql": left, "right_sql": right, "on": []string{"model", "model"}}
			if tc.k != 0 {
				body["k"] = tc.k
			}
			got := postJSON(t, srv.URL+"/join", body)

			var jr joinResponse
			if err := json.Unmarshal(got, &jr); err != nil {
				t.Fatal(err)
			}
			if jr.PairsIssued > tc.spec.K {
				t.Fatalf("pairs_issued = %d, want <= K = %d", jr.PairsIssued, tc.spec.K)
			}
			lst, ls := parseFor(t, med, left)
			rst, rsch := parseFor(t, med, right)
			spec := tc.spec
			spec.LeftSource, spec.RightSource, spec.LeftQuery, spec.RightQuery = "cars", "cars", lst.Query, rst.Query
			spec.LeftJoinAttr, spec.RightJoinAttr = "model", "model"
			res, err := med.QueryJoinCtx(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Answers) == 0 {
				t.Fatal("join fixture has no answers")
			}
			sameWire(t, "join", got, refBody(t, refJoin(ls, rsch, "cars", "cars", res)))
		})
	}
}
