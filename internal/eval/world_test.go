package eval

import (
	"context"
	"testing"

	"qpiad/internal/afd"
	"qpiad/internal/core"
	"qpiad/internal/datagen"
	"qpiad/internal/relation"
)

func testWorld(t *testing.T, nullAttr string) *World {
	t.Helper()
	w, err := NewWorld(WorldConfig{
		Name:           "cars",
		Dataset:        datagen.Cars,
		N:              4000,
		IncompleteFrac: 0.10,
		NullAttr:       nullAttr,
		TrainFrac:      0.10,
		Seed:           5,
		Mediator:       core.Config{Alpha: 0, K: 10},
		Knowledge:      core.KnowledgeConfig{AFD: afd.Config{MinSupport: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorldProtocol(t *testing.T) {
	w := testWorld(t, "")
	if w.GD.Len() != 4000 {
		t.Fatalf("GD size %d", w.GD.Len())
	}
	if w.Train.Len()+w.Test.Len() != w.ED.Len() {
		t.Error("train+test must partition ED")
	}
	if w.Train.Len() != 400 {
		t.Errorf("train = %d, want 400", w.Train.Len())
	}
	if len(w.Hidden) == 0 {
		t.Fatal("no hidden cells")
	}
	// Source serves the test partition.
	rows, err := w.Src.Query(relation.NewQuery("cars"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != w.Test.Len() {
		t.Error("source must wrap the test partition")
	}
}

func TestWorldRelevance(t *testing.T) {
	w := testWorld(t, "body_style")
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))
	rs, err := w.Med.QuerySelectWithCtx(context.Background(), w.Med.Config(), "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Possible) == 0 {
		t.Fatal("expected possible answers")
	}
	flags := w.RelevanceFlags(rs.Possible, q)
	if len(flags) != len(rs.Possible) {
		t.Fatal("flag length mismatch")
	}
	hits := 0
	for _, f := range flags {
		if f {
			hits++
		}
	}
	// QPIAD's ranked answers should be mostly relevant.
	if frac := float64(hits) / float64(len(flags)); frac < 0.5 {
		t.Errorf("relevant fraction = %v", frac)
	}
	// Certain answers never judge relevant (no constrained null).
	for _, a := range rs.Certain {
		if w.IsRelevant(a, q) {
			t.Fatal("certain answer judged as relevant possible answer")
		}
	}
}

func TestRelevantPossibleCount(t *testing.T) {
	w := testWorld(t, "body_style")
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))
	want := 0
	col := w.Test.Schema.MustIndex("body_style")
	for _, tu := range w.Test.Tuples() {
		if !tu[col].IsNull() {
			continue
		}
		truth, ok := w.TruthOf(tu, "body_style")
		if ok && !truth.IsNull() && truth.Str() == "Convt" {
			want++
		}
	}
	if got := w.RelevantPossibleCount(q); got != want {
		t.Errorf("RelevantPossibleCount = %d, manual = %d", got, want)
	}
	if want == 0 {
		t.Fatal("fixture produced no relevant possible answers")
	}
}

func TestRelevantPossibleCountMultiPred(t *testing.T) {
	w := testWorld(t, "")
	q := relation.NewQuery("cars",
		relation.Eq("model", relation.String("Z4")),
		relation.Eq("body_style", relation.String("Convt")),
	)
	n := w.RelevantPossibleCount(q)
	// Manual: tuples null on exactly one of the two attrs with satisfying
	// truth, and the other attr satisfying visibly.
	want := 0
	mcol := w.Test.Schema.MustIndex("model")
	bcol := w.Test.Schema.MustIndex("body_style")
	for _, tu := range w.Test.Tuples() {
		mNull, bNull := tu[mcol].IsNull(), tu[bcol].IsNull()
		switch {
		case mNull && !bNull:
			truth, ok := w.TruthOf(tu, "model")
			if ok && truth.Str() == "Z4" && !tu[bcol].IsNull() && tu[bcol].Str() == "Convt" {
				want++
			}
		case bNull && !mNull:
			truth, ok := w.TruthOf(tu, "body_style")
			if ok && truth.Str() == "Convt" && tu[mcol].Str() == "Z4" {
				want++
			}
		}
	}
	if n != want {
		t.Errorf("multi-pred relevant count = %d, manual = %d", n, want)
	}
}

func TestTruthOf(t *testing.T) {
	w := testWorld(t, "body_style")
	col := w.Test.Schema.MustIndex("body_style")
	found := false
	for _, tu := range w.Test.Tuples() {
		if tu[col].IsNull() {
			if v, ok := w.TruthOf(tu, "body_style"); !ok || v.IsNull() {
				t.Fatal("nulled cell must have recorded truth")
			}
			found = true
		} else {
			if _, ok := w.TruthOf(tu, "body_style"); ok {
				t.Fatal("non-null cell must have no recorded truth")
			}
		}
	}
	if !found {
		t.Fatal("no nulled tuples in test partition")
	}
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(WorldConfig{}); err == nil {
		t.Error("missing dataset should error")
	}
	if _, err := NewWorld(WorldConfig{Dataset: datagen.Cars}); err == nil {
		t.Error("zero N should error")
	}
}
