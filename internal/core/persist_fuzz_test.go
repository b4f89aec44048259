package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"qpiad/internal/afd"
	"qpiad/internal/nbc"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// FuzzLoadKnowledge feeds knowledge files to LoadKnowledge: any bytes give
// an error or knowledge that answers a query, never a panic. With resign
// set, an input that parses as a knowledge document first gets its
// checksum recomputed, so mutations reach the CSV reader and the mining
// behind the checksum gate.
func FuzzLoadKnowledge(f *testing.F) {
	gd := buildCarsGD(200, 1)
	ed, _ := makeIncomplete(gd, "body_style", 0.2, 2)
	smpl := ed.Sample(40, rand.New(rand.NewSource(3)))
	k, err := MineKnowledge("cars", smpl, 5, smpl.IncompleteFraction(), KnowledgeConfig{AFD: afd.Config{MinSupport: 2}, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	var file bytes.Buffer
	if err := k.Save(&file, KnowledgeConfig{AFD: afd.Config{MinSupport: 2}, Predictor: nbc.PredictorConfig{Mode: nbc.ModeEnsemble}}); err != nil {
		f.Fatal(err)
	}
	good := file.Bytes()
	f.Add(good, false)
	f.Add(good, true)
	f.Add(good[:len(good)/2], false)
	f.Add(bytes.Replace(good, []byte("int"), []byte("flt"), 1), true)
	f.Add([]byte(`{"version": 2, "source": "s", "ratio": 1, "per_inc": 0.5, "sample_csv": "a:int,b\n1,x\n\\N,y\n"}`), true)
	f.Add([]byte(`{}`), true)
	f.Fuzz(func(t *testing.T, data []byte, resign bool) {
		if resign {
			var doc knowledgeFile
			if json.Unmarshal(data, &doc) == nil {
				doc.Checksum = doc.payloadChecksum()
				b, err := json.Marshal(doc)
				if err != nil {
					t.Fatal(err)
				}
				data = b
			}
		}
		k, err := LoadKnowledge(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Query the first attribute for its first non-null sample value, over
		// a source holding the sample.
		var q relation.Query
		for _, tp := range k.Sample.Tuples() {
			if !tp[0].IsNull() {
				q = relation.NewQuery(k.Source, relation.Eq(k.Sample.Schema.Names()[0], tp[0]))
				break
			}
		}
		m := New(Config{K: 3})
		m.Register(source.New(k.Source, k.Sample, source.Capabilities{}), k)
		if _, err := m.QuerySelectWithCtx(context.Background(), m.Config(), k.Source, q); err != nil {
			t.Fatalf("loaded knowledge cannot answer %v: %v", q, err)
		}
	})
}
