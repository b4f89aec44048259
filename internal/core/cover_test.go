package core

import (
	"strings"
	"testing"

	"qpiad/internal/relation"
)

func TestGenerateRewritesExported(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	q := convtQuery()
	base, err := f.src.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got := GenerateRewrites(f.k, q, base, f.src.Schema())
	if len(got) == 0 {
		t.Fatal("no rewrites from exported entry point")
	}
	// Matches the internal path.
	internal := f.m.generateRewrites(f.k, q, base, f.src.Schema())
	if len(got) != len(internal) {
		t.Errorf("exported %d vs internal %d", len(got), len(internal))
	}
}

func TestMineKnowledgeErrors(t *testing.T) {
	if _, err := MineKnowledge("x", nil, 1, 0, KnowledgeConfig{}); err == nil {
		t.Error("nil sample should error")
	}
	s := relation.MustSchema(relation.Attribute{Name: "a", Kind: relation.KindString})
	empty := relation.New("e", s)
	if _, err := MineKnowledge("x", empty, 1, 0, KnowledgeConfig{}); err == nil {
		t.Error("empty sample should error")
	}
	one := relation.New("o", s)
	one.MustInsert(relation.Tuple{relation.String("v")})
	if _, err := MineKnowledge("x", one, -1, 0, KnowledgeConfig{}); err == nil {
		t.Error("negative ratio should error")
	}
}

func TestMineKnowledgeSkipsUnlearnableAttrs(t *testing.T) {
	// An attribute that is always null in the sample cannot be learned;
	// the rest of the knowledge must still be built.
	s := relation.MustSchema(
		relation.Attribute{Name: "a", Kind: relation.KindString},
		relation.Attribute{Name: "b", Kind: relation.KindString},
	)
	r := relation.New("r", s)
	for i := 0; i < 30; i++ {
		r.MustInsert(relation.Tuple{relation.String("x"), relation.Null()})
	}
	k, err := MineKnowledge("r", r, 1, 1, KnowledgeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := k.Predictors["b"]; ok {
		t.Error("all-null attribute should have no predictor")
	}
	if _, ok := k.Predictors["a"]; !ok {
		t.Error("learnable attribute should have a predictor")
	}
}

func TestInclusionRuleStringUnknown(t *testing.T) {
	if got := InclusionRule(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown rule renders %q", got)
	}
	if got := Ordering(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown ordering renders %q", got)
	}
}

func TestSaveFileErrors(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	if err := f.k.SaveFile("/nonexistent-dir/x.json", KnowledgeConfig{}); err == nil {
		t.Error("unwritable path should error")
	}
}
