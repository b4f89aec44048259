package core

import (
	"context"
	"testing"
	"time"

	"qpiad/internal/relation"
)

func TestResultSetProject(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	rs, err := f.m.QuerySelectWithCtx(context.Background(), f.m.Config(), "cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}
	proj, ps, err := rs.Project(f.ed.Schema, []string{"make", "model"})
	if err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 2 || ps.Attr(0).Name != "make" || ps.Attr(1).Name != "model" {
		t.Fatalf("projected schema = %v", ps)
	}
	if len(proj.Certain) != len(rs.Certain) || len(proj.Possible) != len(rs.Possible) {
		t.Fatal("projection must preserve answer counts")
	}
	for i, a := range proj.Possible {
		if len(a.Tuple) != 2 {
			t.Fatalf("projected tuple arity %d", len(a.Tuple))
		}
		if a.Confidence != rs.Possible[i].Confidence {
			t.Fatal("projection must preserve confidences")
		}
		// Values align with the original tuple.
		orig := rs.Possible[i].Tuple
		if !a.Tuple[0].Identical(orig[f.ed.Schema.MustIndex("make")]) {
			t.Fatal("projected value mismatch")
		}
	}
	// Originals untouched.
	if len(rs.Possible[0].Tuple) != f.ed.Schema.Len() {
		t.Fatal("Project mutated the original result set")
	}
	// The header survives: the flags, the savings estimate and the issued
	// rewrites describe the result, not its columns.
	rs.Degraded, rs.Stale, rs.StaleAge, rs.EstSavedTuples = true, true, 1500*time.Millisecond, 12.5
	if proj, _, err = rs.Project(f.ed.Schema, []string{"make"}); err != nil {
		t.Fatal(err)
	}
	if proj.Query.Key() != rs.Query.Key() || proj.Source != rs.Source || proj.Generated != rs.Generated ||
		len(proj.Issued) != len(rs.Issued) || !proj.Degraded || !proj.Stale ||
		proj.StaleAge != rs.StaleAge || proj.EstSavedTuples != rs.EstSavedTuples {
		t.Errorf("projected header = {%v %q gen=%d issued=%d degraded=%v stale=%v age=%v saved=%v}, want {%v %q gen=%d issued=%d true true %v %v}",
			proj.Query, proj.Source, proj.Generated, len(proj.Issued), proj.Degraded, proj.Stale, proj.StaleAge, proj.EstSavedTuples,
			rs.Query, rs.Source, rs.Generated, len(rs.Issued), rs.StaleAge, rs.EstSavedTuples)
	}
	// Unknown attribute errors.
	if _, _, err := rs.Project(f.ed.Schema, []string{"nope"}); err == nil {
		t.Error("projecting a missing attribute should error")
	}
}

func TestProjectTuples(t *testing.T) {
	s := relation.MustSchema(
		relation.Attribute{Name: "a", Kind: relation.KindInt},
		relation.Attribute{Name: "b", Kind: relation.KindString},
	)
	tuples := []relation.Tuple{{relation.Int(1), relation.String("x")}}
	out, ps, err := relation.ProjectTuples(s, tuples, []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 1 || out[0][0].Str() != "x" {
		t.Fatalf("projection = %v %v", ps, out)
	}
}
