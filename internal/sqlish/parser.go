package sqlish

import (
	"fmt"
	"strconv"
	"strings"

	"qpiad/internal/relation"
)

// OrderBy is one ORDER BY term.
type OrderBy struct {
	Attr string
	Desc bool
}

// Statement is a parsed SELECT.
type Statement struct {
	// Query is the relational form: relation name, conjunctive predicates,
	// optional aggregate.
	Query relation.Query
	// Projection lists the selected columns; empty means * (all columns).
	// Aggregate statements have no projection.
	Projection []string
	// Order holds ORDER BY terms in priority order. Note that QPIAD's
	// possible answers carry their own confidence ranking; ORDER BY applies
	// within the certain and possible sections independently.
	Order []OrderBy
	// Limit caps the returned answers per section; 0 means no LIMIT
	// clause. A parsed LIMIT is at least 1.
	Limit int
}

// Parse parses one SELECT statement.
func Parse(input string) (*Statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, input: input}
	st, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("trailing input %q", p.peek().text)
	}
	return st, nil
}

type parser struct {
	toks  []token
	pos   int
	input string
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlish: %s (at offset %d)", fmt.Sprintf(format, args...), p.peek().pos)
}

// keyword consumes an identifier token matching kw case-insensitively.
func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return p.errf("expected %s, got %q", strings.ToUpper(kw), p.peek().text)
	}
	return nil
}

func (p *parser) symbol(s string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.symbol(s) {
		return p.errf("expected %q, got %q", s, p.peek().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, got %q", t.text)
	}
	p.pos++
	return t.text, nil
}

var aggFuncs = map[string]relation.AggFunc{
	"COUNT": relation.AggCount,
	"SUM":   relation.AggSum,
	"AVG":   relation.AggAvg,
	"MIN":   relation.AggMin,
	"MAX":   relation.AggMax,
}

func (p *parser) parseSelect() (*Statement, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	st := &Statement{}

	// Select list: '*', aggregate, or column list.
	switch {
	case p.symbol("*"):
		// all columns
	default:
		t := p.peek()
		if t.kind != tokIdent {
			return nil, p.errf("expected column list, * or aggregate, got %q", t.text)
		}
		if fn, isAgg := aggFuncs[strings.ToUpper(t.text)]; isAgg && p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
			p.pos += 2 // func name and '('
			agg := relation.Aggregate{Func: fn}
			if p.symbol("*") {
				if fn != relation.AggCount {
					return nil, p.errf("%s(*) is not valid; only COUNT(*)", strings.ToUpper(t.text))
				}
			} else {
				attr, err := p.ident()
				if err != nil {
					return nil, err
				}
				agg.Attr = attr
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			st.Query.Agg = &agg
		} else {
			for {
				col, err := p.ident()
				if err != nil {
					return nil, err
				}
				st.Projection = append(st.Projection, col)
				if !p.symbol(",") {
					break
				}
			}
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	rel, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Query.Relation = rel

	if p.keyword("WHERE") {
		for {
			pred, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			st.Query.Preds = append(st.Query.Preds, pred)
			if !p.keyword("AND") {
				break
			}
		}
	}
	if p.keyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			attr, err := p.ident()
			if err != nil {
				return nil, err
			}
			ob := OrderBy{Attr: attr}
			if p.keyword("DESC") {
				ob.Desc = true
			} else {
				p.keyword("ASC")
			}
			st.Order = append(st.Order, ob)
			if !p.symbol(",") {
				break
			}
		}
	}
	if p.keyword("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errf("LIMIT needs a number, got %q", t.text)
		}
		p.pos++
		// A LIMIT is at least 1: 0 is how a statement without one reads.
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 1 {
			return nil, p.errf("bad LIMIT %q (a LIMIT is at least 1)", t.text)
		}
		st.Limit = n
	}
	return st, nil
}

func (p *parser) parsePredicate() (relation.Predicate, error) {
	attr, err := p.ident()
	if err != nil {
		return relation.Predicate{}, err
	}
	// IS [NOT] NULL
	if p.keyword("IS") {
		if p.keyword("NOT") {
			if err := p.expectKeyword("NULL"); err != nil {
				return relation.Predicate{}, err
			}
			return relation.Predicate{Attr: attr, Op: relation.OpNotNull}, nil
		}
		if err := p.expectKeyword("NULL"); err != nil {
			return relation.Predicate{}, err
		}
		return relation.IsNull(attr), nil
	}
	// BETWEEN lo AND hi
	if p.keyword("BETWEEN") {
		lo, err := p.value()
		if err != nil {
			return relation.Predicate{}, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return relation.Predicate{}, err
		}
		hi, err := p.value()
		if err != nil {
			return relation.Predicate{}, err
		}
		return relation.Between(attr, lo, hi), nil
	}
	// Comparison operator.
	t := p.peek()
	if t.kind != tokSymbol {
		return relation.Predicate{}, p.errf("expected operator after %q, got %q", attr, t.text)
	}
	var op relation.Op
	switch t.text {
	case "=":
		op = relation.OpEq
	case "!=", "<>":
		op = relation.OpNe
	case "<":
		op = relation.OpLt
	case "<=":
		op = relation.OpLe
	case ">":
		op = relation.OpGt
	case ">=":
		op = relation.OpGe
	default:
		return relation.Predicate{}, p.errf("unknown operator %q", t.text)
	}
	p.pos++
	v, err := p.value()
	if err != nil {
		return relation.Predicate{}, err
	}
	return relation.Predicate{Attr: attr, Op: op, Value: v}, nil
}

// value parses a literal: quoted string, number, TRUE/FALSE, NULL, or a
// bareword (treated as a string, so WHERE make = Honda works).
func (p *parser) value() (relation.Value, error) {
	t := p.peek()
	switch t.kind {
	case tokString:
		p.pos++
		return relation.String(t.text), nil
	case tokNumber:
		p.pos++
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return relation.Null(), p.errf("bad number %q", t.text)
			}
			return relation.Float(f), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return relation.Null(), p.errf("bad number %q", t.text)
		}
		return relation.Int(i), nil
	case tokIdent:
		p.pos++
		switch strings.ToUpper(t.text) {
		case "TRUE":
			return relation.Bool(true), nil
		case "FALSE":
			return relation.Bool(false), nil
		case "NULL":
			return relation.Null(), nil
		default:
			return relation.String(t.text), nil
		}
	default:
		return relation.Null(), p.errf("expected a value, got %q", t.text)
	}
}

// CoerceTypes adjusts the statement's literal types to the schema: integer
// literals become floats for float columns, and numeric strings parsed as
// barewords become numbers where the column is numeric. Unknown attributes
// are reported.
func (st *Statement) CoerceTypes(s *relation.Schema) error {
	for i := range st.Query.Preds {
		p := &st.Query.Preds[i]
		kind, ok := s.KindOf(p.Attr)
		if !ok {
			return fmt.Errorf("sqlish: unknown attribute %q (schema %s)", p.Attr, s)
		}
		var err error
		if p.Value, err = coerce(p.Value, kind); err != nil {
			return fmt.Errorf("sqlish: attribute %q: %w", p.Attr, err)
		}
		if p.Op == relation.OpBetween {
			if p.High, err = coerce(p.High, kind); err != nil {
				return fmt.Errorf("sqlish: attribute %q: %w", p.Attr, err)
			}
		}
	}
	for _, col := range st.Projection {
		if !s.Has(col) {
			return fmt.Errorf("sqlish: unknown projection column %q", col)
		}
	}
	if st.Query.Agg != nil && st.Query.Agg.Attr != "" && !s.Has(st.Query.Agg.Attr) {
		return fmt.Errorf("sqlish: unknown aggregate attribute %q", st.Query.Agg.Attr)
	}
	for _, ob := range st.Order {
		if !s.Has(ob.Attr) {
			return fmt.Errorf("sqlish: unknown ORDER BY attribute %q", ob.Attr)
		}
	}
	return nil
}

// Comparator builds a tuple comparison function for the statement's ORDER
// BY terms under the given schema (negative = a before b). Nulls sort
// last regardless of direction. With no ORDER BY the comparator treats
// everything as equal, which keeps stable sorts order-preserving.
func (st *Statement) Comparator(s *relation.Schema) (func(a, b relation.Tuple) int, error) {
	type term struct {
		col  int
		desc bool
	}
	terms := make([]term, len(st.Order))
	for i, ob := range st.Order {
		col, ok := s.Index(ob.Attr)
		if !ok {
			return nil, fmt.Errorf("sqlish: unknown ORDER BY attribute %q", ob.Attr)
		}
		terms[i] = term{col, ob.Desc}
	}
	return func(a, b relation.Tuple) int {
		for _, t := range terms {
			va, vb := a[t.col], b[t.col]
			switch {
			case va.IsNull() && vb.IsNull():
				continue
			case va.IsNull():
				return 1 // nulls last
			case vb.IsNull():
				return -1
			}
			c, ok := va.Compare(vb)
			if !ok || c == 0 {
				continue
			}
			if t.desc {
				return -c
			}
			return c
		}
		return 0
	}, nil
}

func coerce(v relation.Value, kind relation.Kind) (relation.Value, error) {
	if v.IsNull() || v.Kind() == kind {
		return v, nil
	}
	switch kind {
	case relation.KindFloat:
		if v.Kind() == relation.KindInt {
			return relation.Float(float64(v.IntVal())), nil
		}
		if v.Kind() == relation.KindString {
			if f, err := strconv.ParseFloat(v.Str(), 64); err == nil {
				return relation.Float(f), nil
			}
		}
	case relation.KindInt:
		if v.Kind() == relation.KindFloat && v.FloatVal() == float64(int64(v.FloatVal())) {
			return relation.Int(int64(v.FloatVal())), nil
		}
		if v.Kind() == relation.KindString {
			if i, err := strconv.ParseInt(v.Str(), 10, 64); err == nil {
				return relation.Int(i), nil
			}
		}
	case relation.KindBool:
		if v.Kind() == relation.KindString {
			if b, err := strconv.ParseBool(v.Str()); err == nil {
				return relation.Bool(b), nil
			}
		}
	case relation.KindString:
		// Render numerics back to strings for string columns.
		return relation.String(v.String()), nil
	}
	return v, fmt.Errorf("cannot use %s value %s where %s is expected", v.Kind(), v, kind)
}
