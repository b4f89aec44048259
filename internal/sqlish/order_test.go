package sqlish

import (
	"sort"
	"testing"

	"qpiad/internal/relation"
)

func TestParseOrderByAndLimit(t *testing.T) {
	st := mustParse(t, "SELECT * FROM cars WHERE make = Honda ORDER BY price DESC, year LIMIT 5")
	if len(st.Order) != 2 {
		t.Fatalf("order = %v", st.Order)
	}
	if st.Order[0].Attr != "price" || !st.Order[0].Desc {
		t.Errorf("first term = %+v", st.Order[0])
	}
	if st.Order[1].Attr != "year" || st.Order[1].Desc {
		t.Errorf("second term = %+v", st.Order[1])
	}
	if st.Limit != 5 {
		t.Errorf("limit = %d", st.Limit)
	}
	// ASC keyword is accepted.
	st = mustParse(t, "SELECT * FROM cars ORDER BY year ASC")
	if st.Order[0].Desc {
		t.Error("ASC parsed as DESC")
	}
}

func TestParseOrderLimitErrors(t *testing.T) {
	bad := []string{
		"SELECT * FROM cars ORDER price",
		"SELECT * FROM cars ORDER BY",
		"SELECT * FROM cars LIMIT",
		"SELECT * FROM cars LIMIT abc",
		"SELECT * FROM cars LIMIT -3",
		"SELECT * FROM cars LIMIT 0",
		"SELECT * FROM cars WHERE body_style = 'Convt' LIMIT 00",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestCoerceTypesChecksOrder(t *testing.T) {
	s := relation.MustSchema(relation.Attribute{Name: "a", Kind: relation.KindInt})
	st := mustParse(t, "SELECT * FROM r ORDER BY nope")
	if err := st.CoerceTypes(s); err == nil {
		t.Error("unknown ORDER BY attribute should error")
	}
}

func TestComparator(t *testing.T) {
	s := relation.MustSchema(
		relation.Attribute{Name: "price", Kind: relation.KindInt},
		relation.Attribute{Name: "year", Kind: relation.KindInt},
	)
	st := mustParse(t, "SELECT * FROM r ORDER BY price DESC, year")
	cmp, err := st.Comparator(s)
	if err != nil {
		t.Fatal(err)
	}
	tuples := []relation.Tuple{
		{relation.Int(100), relation.Int(2005)},
		{relation.Int(200), relation.Int(2001)},
		{relation.Int(200), relation.Int(1999)},
		{relation.Null(), relation.Int(1996)},
		{relation.Int(100), relation.Int(2003)},
	}
	sort.SliceStable(tuples, func(i, j int) bool { return cmp(tuples[i], tuples[j]) < 0 })
	wantPrices := []any{int64(200), int64(200), int64(100), int64(100), nil}
	for i, w := range wantPrices {
		got := tuples[i][0]
		if w == nil {
			if !got.IsNull() {
				t.Fatalf("row %d: want null, got %v", i, got)
			}
			continue
		}
		if got.IntVal() != w.(int64) {
			t.Fatalf("row %d: price %v, want %v", i, got, w)
		}
	}
	// Secondary ascending year within equal price.
	if tuples[0][1].IntVal() != 1999 || tuples[1][1].IntVal() != 2001 {
		t.Errorf("secondary order: %v %v", tuples[0][1], tuples[1][1])
	}
	// No ORDER BY: comparator is all-equal.
	st2 := mustParse(t, "SELECT * FROM r")
	cmp2, err := st2.Comparator(s)
	if err != nil {
		t.Fatal(err)
	}
	if cmp2(tuples[0], tuples[1]) != 0 {
		t.Error("empty order should compare equal")
	}
	// Unknown attribute errors.
	st3 := mustParse(t, "SELECT * FROM r ORDER BY nope")
	if _, err := st3.Comparator(s); err == nil {
		t.Error("unknown attribute should error")
	}
}
