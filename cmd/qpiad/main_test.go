package main

import (
	"bytes"
	"strings"
	"testing"

	"qpiad"
)

func testSchema() *qpiad.Schema {
	return qpiad.MustSchema(
		qpiad.Attribute{Name: "make", Kind: qpiad.KindString},
		qpiad.Attribute{Name: "year", Kind: qpiad.KindInt},
		qpiad.Attribute{Name: "price", Kind: qpiad.KindFloat},
	)
}

func TestBuildQuerySimple(t *testing.T) {
	q, err := buildQuery(testSchema(), "make", "Honda", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 1 || q.Preds[0].Attr != "make" || q.Preds[0].Value.Str() != "Honda" {
		t.Errorf("query = %v", q)
	}
}

func TestBuildQueryTypedValues(t *testing.T) {
	q, err := buildQuery(testSchema(), "year", "2004", "")
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Value.IntVal() != 2004 {
		t.Errorf("year parsed as %v", q.Preds[0].Value)
	}
	q, err = buildQuery(testSchema(), "price", "19999.5", "")
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Value.FloatVal() != 19999.5 {
		t.Errorf("price parsed as %v", q.Preds[0].Value)
	}
}

func TestBuildQueryWhereClauses(t *testing.T) {
	q, err := buildQuery(testSchema(), "make", "Honda", "year=2004, price=15000")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 3 {
		t.Fatalf("preds = %v", q.Preds)
	}
	if q.Preds[1].Attr != "year" || q.Preds[2].Attr != "price" {
		t.Errorf("where order: %v", q.Preds)
	}
}

func TestBuildQueryErrors(t *testing.T) {
	if _, err := buildQuery(testSchema(), "nope", "x", ""); err == nil {
		t.Error("unknown attribute should error")
	}
	if _, err := buildQuery(testSchema(), "year", "notanint", ""); err == nil {
		t.Error("bad int should error")
	}
	if _, err := buildQuery(testSchema(), "make", "Honda", "badclause"); err == nil {
		t.Error("bad where clause should error")
	}
	if _, err := buildQuery(testSchema(), "make", "Honda", "nope=1"); err == nil {
		t.Error("unknown where attribute should error")
	}
}

func TestRunEndToEnd(t *testing.T) {
	// Exercise the whole CLI path on a small generated database.
	err := run("", 3000, 7, 0.10, 0.10, "body_style", "Convt", "", "", 0, 5, 3, true, resilience{})
	if err != nil {
		t.Fatal(err)
	}
	// Multi-predicate run.
	err = run("", 3000, 7, 0.10, 0.10, "model", "Civic", "year=2003", "", 1, 5, 3, false, resilience{})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSQL(t *testing.T) {
	err := run("", 3000, 7, 0.10, 0.10, "", "", "",
		"SELECT make, model FROM db WHERE body_style = 'Convt' AND year >= 2000", 0, 5, 3, true, resilience{})
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate SQL path.
	err = run("", 3000, 7, 0.10, 0.10, "", "", "",
		"SELECT COUNT(*) FROM db WHERE body_style = 'Convt'", 1, -1, 3, false, resilience{})
	if err != nil {
		t.Fatal(err)
	}
	// ORDER BY + LIMIT path.
	err = run("", 3000, 7, 0.10, 0.10, "", "", "",
		"SELECT * FROM db WHERE body_style = 'Convt' ORDER BY price DESC LIMIT 4", 0, 5, 10, false, resilience{})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSQLErrors(t *testing.T) {
	if err := run("", 1000, 7, 0.10, 0.10, "", "", "", "NOT SQL", 0, 5, 3, false, resilience{}); err == nil {
		t.Error("bad SQL should error")
	}
	if err := run("", 1000, 7, 0.10, 0.10, "", "", "",
		"SELECT * FROM db WHERE nope = 1", 0, 5, 3, false, resilience{}); err == nil {
		t.Error("unknown attribute should error")
	}
}

func TestREPL(t *testing.T) {
	sys, db, err := setup("", 3000, 7, 0.10, 0.10, 0, 5, resilience{})
	if err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader(strings.Join([]string{
		"",
		"-- a comment",
		"SELECT make, model FROM db WHERE body_style = 'Convt' LIMIT 2",
		"SELECT * FROM db WHERE make = 'BMW' ORDER BY price, year DESC LIMIT 4",
		"SELECT COUNT(*) FROM db WHERE body_style = 'Sedan'",
		"BOGUS SYNTAX",
		`\q`,
		"never reached",
	}, "\n"))
	var out bytes.Buffer
	if err := repl(sys, db, in, &out, 5, true); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"-- certain", "-- possible", "with prediction", "error:"} {
		if !strings.Contains(text, want) {
			t.Errorf("REPL output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "never reached") {
		t.Error("REPL did not stop at \\q")
	}
	// LIMIT trims the sections, as -sql does, not only what is printed.
	for _, want := range []string{"-- certain (2) --", "-- certain (4) --"} {
		if !strings.Contains(text, want) {
			t.Errorf("REPL output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "... and") {
		t.Errorf("LIMIT left answers beyond it:\n%s", text)
	}
}

// TestREPLDegraded runs the shell over a faulted source: a degraded
// selection must list its failed rewrites and the warning, as -sql does,
// and a degraded aggregate must warn too.
func TestREPLDegraded(t *testing.T) {
	res := resilience{
		faults: qpiad.FaultProfile{Seed: 1, TransientRate: 0.4},
		retry:  qpiad.RetryPolicy{MaxAttempts: 1},
	}
	sys, db, err := setup("", 3000, 42, 0.10, 0.10, 0, 10, res)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	in := strings.NewReader("SELECT * FROM db WHERE body_style = 'Convt'\nSELECT COUNT(*) FROM db WHERE body_style = 'Sedan'\n")
	if err := repl(sys, db, in, &out, 5, false); err != nil {
		t.Fatal(err)
	}
	selection, aggregate, _ := strings.Cut(out.String(), "certain answers only")
	for _, want := range []string{"FAILED after", "WARNING: result degraded"} {
		if !strings.Contains(selection, want) {
			t.Errorf("selection output missing %q:\n%s", want, selection)
		}
	}
	if !strings.Contains(aggregate, "WARNING: result degraded") {
		t.Errorf("aggregate output missing the degraded warning:\n%s", aggregate)
	}
}

// TestKZeroIssuesEveryRewrite pins -k 0 as unlimited, the meaning K ≤ 0
// has in qpiad-server and over HTTP: every generated rewrite is issued,
// not the facade's default of 10.
func TestKZeroIssuesEveryRewrite(t *testing.T) {
	sys, _, err := setup("", 1000, 42, 0.10, 0.10, 0, 0, resilience{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sys.Query("db", qpiad.NewQuery("db", qpiad.Eq("body_style", qpiad.String("Convt"))))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Generated <= 10 || len(rs.Issued) != rs.Generated {
		t.Errorf("k 0 issued %d of %d generated rewrites, want all of more than 10", len(rs.Issued), rs.Generated)
	}
}

func TestExecSQLErrors(t *testing.T) {
	sys, db, err := setup("", 1500, 7, 0.10, 0.10, 0, 5, resilience{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := execSQL(sys, db, "SELECT * FROM db WHERE nope = 1", &out, 5, false); err == nil {
		t.Error("unknown attribute should error")
	}
	if err := execSQL(sys, db, "garbage", &out, 5, false); err == nil {
		t.Error("bad SQL should error")
	}
}

func TestRunBadCSV(t *testing.T) {
	if err := run("/nonexistent.csv", 0, 1, 0, 0.1, "a", "b", "", "", 0, 5, 3, false, resilience{}); err == nil {
		t.Error("missing CSV should error")
	}
}
