package core

import (
	"math/rand"
	"sync"
	"testing"

	"qpiad/internal/afd"
	"qpiad/internal/relation"
)

// modelSample is a one-attribute sample: six A4 rows and two Z4 rows.
func modelSample() *relation.Relation {
	s := relation.MustSchema(
		relation.Attribute{Name: "model", Kind: relation.KindString},
	)
	r := relation.New("s", s)
	for i := 0; i < 6; i++ {
		r.MustInsert(relation.Tuple{relation.String("A4")})
	}
	for i := 0; i < 2; i++ {
		r.MustInsert(relation.Tuple{relation.String("Z4")})
	}
	return r
}

func TestEstSel(t *testing.T) {
	k, err := MineKnowledge("s", modelSample(), 10, 0.1, KnowledgeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	qa := relation.NewQuery("s", relation.Eq("model", relation.String("A4")))
	qz := relation.NewQuery("s", relation.Eq("model", relation.String("Z4")))
	// EstSel = 6 * 10 * 0.1 = 6.
	if got := k.EstSel(qa); got != 6 {
		t.Errorf("EstSel(A4) = %v", got)
	}
	if got := k.EstSel(qz); got != 2 {
		t.Errorf("EstSel(Z4) = %v", got)
	}
	// Higher-selectivity query ranks higher (the A4 vs Z4 example).
	if k.EstSel(qa) <= k.EstSel(qz) {
		t.Error("A4 should have higher estimated selectivity")
	}
	if k.Ratio != 10 || k.PerInc != 0.1 {
		t.Errorf("mined knowledge holds ratio %v and PerInc %v, want 10 and 0.1", k.Ratio, k.PerInc)
	}
}

// TestValidation checks the ratio and PerInc bounds MineKnowledge enforces
// on the selectivity inputs.
func TestValidation(t *testing.T) {
	if _, err := MineKnowledge("s", nil, 1, 0.5, KnowledgeConfig{}); err == nil {
		t.Error("nil sample should error")
	}
	if _, err := MineKnowledge("s", modelSample(), -1, 0.5, KnowledgeConfig{}); err == nil {
		t.Error("negative ratio should error")
	}
	if _, err := MineKnowledge("s", modelSample(), 1, 1.5, KnowledgeConfig{}); err == nil {
		t.Error("PerInc > 1 should error")
	}
	if _, err := MineKnowledge("s", modelSample(), 1, -0.1, KnowledgeConfig{}); err == nil {
		t.Error("PerInc < 0 should error")
	}
	if _, err := MineKnowledge("s", modelSample(), 0, 0, KnowledgeConfig{}); err != nil {
		t.Errorf("boundary values should pass: %v", err)
	}
}

func TestUnknownQueryZero(t *testing.T) {
	k, err := MineKnowledge("s", modelSample(), 10, 0.1, KnowledgeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	q := relation.NewQuery("s", relation.Eq("model", relation.String("Unseen")))
	if k.EstSel(q) != 0 {
		t.Error("unseen value should have zero estimate")
	}
}

// TestKnowledgeEstSelConcurrent estimates from many goroutines at once on
// freshly mined knowledge, whose sample has built no index or column yet,
// so they are built under contention. Every estimate must equal the one a
// sequential pass gives over knowledge mined from a copy of the sample.
func TestKnowledgeEstSelConcurrent(t *testing.T) {
	ed, _ := makeIncomplete(buildCarsGD(1000, 1), "body_style", 0.1, 2)
	smpl := ed.Sample(300, rand.New(rand.NewSource(3)))
	mine := func(s *relation.Relation) *Knowledge {
		k, err := MineKnowledge("cars", s, 5, s.IncompleteFraction(), KnowledgeConfig{AFD: afd.Config{MinSupport: 5}, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	var qs []relation.Query
	for _, tp := range smpl.Tuples()[:50] {
		qs = append(qs,
			relation.NewQuery("cars", relation.Eq("model", tp[2]), relation.Eq("year", tp[3])),
			relation.NewQuery("cars", relation.Eq("body_style", tp[5]), relation.Between("price", relation.Int(tp[4].IntVal()-500), tp[4])),
		)
	}
	seq := mine(smpl.Clone())
	want := make([]float64, len(qs))
	for i, q := range qs {
		want[i] = seq.EstSel(q)
	}

	k := mine(smpl)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i, q := range qs {
				if got := k.EstSel(q); got != want[i] {
					t.Errorf("EstSel(%v) = %v concurrently, %v sequentially", q, got, want[i])
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}
