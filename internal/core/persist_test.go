package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qpiad/internal/afd"
	"qpiad/internal/nbc"
	"qpiad/internal/relation"
)

func TestKnowledgeSaveLoadRoundTrip(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	cfg := KnowledgeConfig{AFD: afd.Config{MinSupport: 5}, Predictor: nbc.PredictorConfig{}}

	var buf bytes.Buffer
	if err := f.k.Save(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadKnowledge(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Mined structures are identical: same AFDs in the same order.
	if len(loaded.AFDs.AFDs) != len(f.k.AFDs.AFDs) {
		t.Fatalf("AFD count %d vs %d", len(loaded.AFDs.AFDs), len(f.k.AFDs.AFDs))
	}
	for i := range loaded.AFDs.AFDs {
		a, b := loaded.AFDs.AFDs[i], f.k.AFDs.AFDs[i]
		if a.String() != b.String() || a.Support != b.Support {
			t.Fatalf("AFD %d: %v vs %v", i, a, b)
		}
	}
	// Selectivity statistics survive.
	if loaded.Ratio != f.k.Ratio || loaded.PerInc != f.k.PerInc {
		t.Error("selectivity statistics differ")
	}
	// Predictions are identical.
	p1 := f.k.Predictors["body_style"]
	p2 := loaded.Predictors["body_style"]
	ev := map[string]relation.Value{"model": relation.String("Z4")}
	d1, d2 := p1.PredictEvidence(ev), p2.PredictEvidence(ev)
	if d1.Len() != d2.Len() {
		t.Fatal("distribution sizes differ")
	}
	for i := 0; i < d1.Len(); i++ {
		if d1.ProbAt(i) != d2.Prob(d1.Value(i)) {
			t.Fatal("predictions differ after round trip")
		}
	}
}

func TestKnowledgeSaveLoadFile(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	cfg := KnowledgeConfig{AFD: afd.Config{MinSupport: 5}}
	path := filepath.Join(t.TempDir(), "cars.knowledge.json")
	if err := f.k.SaveFile(path, cfg); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadKnowledgeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Source != "cars" || loaded.Sample.Len() != f.k.Sample.Len() {
		t.Errorf("loaded source=%q sample=%d", loaded.Source, loaded.Sample.Len())
	}
	// The loaded knowledge drives queries end-to-end.
	m := New(DefaultConfig())
	m.Register(f.src, loaded)
	rs, err := m.QuerySelectWithCtx(context.Background(), m.Config(), "cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Possible) == 0 {
		t.Error("loaded knowledge produced no possible answers")
	}
}

func TestLoadKnowledgeErrors(t *testing.T) {
	if _, err := LoadKnowledge(strings.NewReader("not json")); err == nil {
		t.Error("bad JSON should error")
	}
	if _, err := LoadKnowledge(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("wrong version should error")
	}
	if _, err := LoadKnowledge(strings.NewReader(`{"version": 1, "source": "x", "sample_csv": ""}`)); err == nil {
		t.Error("pre-checksum version-1 file should error")
	}
	if _, err := LoadKnowledge(strings.NewReader(`{"version": 2, "source": "x", "sample_csv": "a"}`)); err == nil {
		t.Error("missing checksum should error")
	}
	if _, err := LoadKnowledgeFile("/nonexistent"); err == nil {
		t.Error("missing file should error")
	}
	// A file re-signed over an out-of-range ratio or PerInc passes the
	// checksum; MineKnowledge's checks must reject it.
	for _, c := range []struct {
		ratio, perInc float64
		ok            bool
	}{{-1, 0.5, false}, {1, 1.5, false}, {1, 0.5, true}} {
		doc := knowledgeFile{Version: knowledgeFileVersion, Source: "x", Ratio: c.ratio, PerInc: c.perInc, SampleCSV: "a\nv\n"}
		doc.Checksum = doc.payloadChecksum()
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LoadKnowledge(bytes.NewReader(b)); (err == nil) != c.ok {
			t.Errorf("ratio %v, PerInc %v: load error %v", c.ratio, c.perInc, err)
		}
	}
}

// TestLoadKnowledgeRejectsCorruption pins the crash-safety contract the
// chaos harness leans on: a knowledge file that was truncated mid-write or
// had payload bytes flipped must fail to load with a clear error — never
// silently re-mine different knowledge.
func TestLoadKnowledgeRejectsCorruption(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	cfg := KnowledgeConfig{AFD: afd.Config{MinSupport: 5}}
	var buf bytes.Buffer
	if err := f.k.Save(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()

	// Truncation at any JSON-breaking point fails the decode; truncation
	// that happens to keep the JSON well-formed fails the checksum. Sweep a
	// few cut points of both kinds.
	for _, frac := range []float64{0.25, 0.5, 0.9, 0.99} {
		cut := doc[:int(float64(len(doc))*frac)]
		if _, err := LoadKnowledge(strings.NewReader(cut)); err == nil {
			t.Errorf("truncation at %.0f%% loaded without error", 100*frac)
		}
	}

	// Flip bytes inside the sample payload (keeps the JSON valid: one CSV
	// character becomes another) — the checksum must catch it.
	i := strings.Index(doc, "sample_csv")
	if i < 0 {
		t.Fatal("no sample_csv field in saved document")
	}
	corrupted := doc[:i+40] + "X" + doc[i+41:]
	_, err := LoadKnowledge(strings.NewReader(corrupted))
	if err == nil {
		t.Fatal("payload corruption loaded without error")
	}
	if !strings.Contains(err.Error(), "checksum") && !strings.Contains(err.Error(), "truncated") {
		t.Errorf("corruption error should name the cause, got: %v", err)
	}
}

// TestSaveFileIsAtomic pins that a failed or interrupted SaveFile never
// clobbers the existing file: the write goes to a temp file and lands by
// rename, so the target is either the old complete version or the new one.
func TestSaveFileIsAtomic(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	cfg := KnowledgeConfig{AFD: afd.Config{MinSupport: 5}}
	dir := t.TempDir()
	path := filepath.Join(dir, "cars.knowledge.json")
	if err := f.k.SaveFile(path, cfg); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A save into an unwritable directory fails without touching the target
	// and without leaving temp litter behind.
	if err := f.k.SaveFile(filepath.Join(dir, "nosuchdir", "x.json"), cfg); err == nil {
		t.Fatal("save into a missing directory should error")
	}

	// Overwrite succeeds and the directory holds exactly the target — no
	// abandoned temp files from this or the failed attempt.
	if err := f.k.SaveFile(path, cfg); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "cars.knowledge.json" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory should hold only the target, got %v", names)
	}
	now, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, now) {
		t.Error("re-saving identical knowledge should produce identical bytes")
	}
	if _, err := LoadKnowledgeFile(path); err != nil {
		t.Fatal(err)
	}
}
