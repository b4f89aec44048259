package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"qpiad/internal/afd"
	"qpiad/internal/nbc"
	"qpiad/internal/relation"
)

// scorePairsUnits builds join units whose distributions come from every
// constructor the join meets: a base set's empirical histogram, a trained
// predictor's posteriors (which share the classifier's index) and
// NewDistribution over values that differ only in kind, NaN payloads and a
// repeated value.
func scorePairsUnits(t *testing.T) (left, right []queryUnit) {
	t.Helper()
	s := relation.MustSchema(
		relation.Attribute{Name: "make", Kind: relation.KindString},
		relation.Attribute{Name: "model", Kind: relation.KindString},
	)
	r := relation.New("cars", s)
	for i, m := range []string{"A4", "A4", "Z4", "Civic", "A4", "Z4", "Camry", "Civic", "A4"} {
		r.MustInsert(relation.Tuple{relation.String([]string{"Audi", "BMW", "Honda"}[i%3]), relation.String(m)})
	}
	mined := &afd.Result{Relation: "cars", AFDs: []afd.AFD{{Determining: []string{"make"}, Dependent: "model", Confidence: 0.8}}}
	p, err := nbc.TrainPredictor(r, "model", mined, nbc.PredictorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	predict := func(mk string) nbc.Distribution {
		return p.PredictEvidence(map[string]relation.Value{"make": relation.String(mk)})
	}
	nan2 := relation.Float(math.Float64frombits(0x7ff8000000000001))
	unit := func(side string, i int, prec, estSel float64, jd nbc.Distribution) queryUnit {
		return queryUnit{query: relation.NewQuery(side, relation.Eq("i", relation.Int(int64(i)))), prec: prec, estSel: estSel, jd: jd}
	}
	left = []queryUnit{
		unit("l", 0, 1, 9, empiricalDistribution(s, r.Tuples(), "model")),
		unit("l", 1, 0.7, 31.5, predict("Audi")),
		unit("l", 2, 0.45, 12, predict("Honda")),
		unit("l", 3, 0.9, 4.25, nbc.NewDistribution(
			[]relation.Value{relation.Int(1), relation.Float(1), relation.Float(math.NaN()), relation.String("A4")},
			[]float64{1, 2, 3, 4})),
	}
	right = []queryUnit{
		unit("r", 0, 1, 5, empiricalDistribution(s, r.Tuples()[3:], "model")),
		unit("r", 1, 0.6, 17, predict("BMW")),
		unit("r", 2, 0.8, 2.5, nbc.NewDistribution(
			[]relation.Value{relation.Float(1), nan2, relation.String("Z4"), relation.String("A4"), relation.String("Z4")},
			[]float64{0.5, 1, 2, 3, 4})),
	}
	return left, right
}

// TestScorePairsEstSelPinned pins every pair's EstSel bits, in ranked
// order, to what scorePairs computed when each distribution built its own
// value index: Prob must keep finding the same entries.
func TestScorePairsEstSelPinned(t *testing.T) {
	left, right := scorePairsUnits(t)
	want := []struct {
		left, right string
		estSel      uint64
	}{
		{"1", "0", 0x403ead3447241c05},
		{"1", "1", 0x4052886a40041dce},
		{"0", "1", 0x40409f9779d16392},
		{"0", "0", 0x4028ffffffffffff},
		{"3", "1", 0x4023f6057498b608},
		{"2", "1", 0x402a42350667a5c1},
		{"0", "2", 0x400e79e79e79e79e},
		{"2", "0", 0x40188253c8253c82},
		{"1", "2", 0x4012fe2ae6743271},
		{"3", "0", 0x4004666666666667},
		{"2", "2", 0x400cace213f2b388},
		{"3", "2", 0x3ff2a6c405d9f739},
	}
	pairs := scorePairs(left, right, 0.5, 0)
	var got strings.Builder
	for _, p := range pairs {
		fmt.Fprintf(&got, "\t\t{%q, %q, %#016x},\n", p.pair.Left.Preds[0].Value, p.pair.Right.Preds[0].Value, math.Float64bits(p.pair.EstSel))
	}
	if len(pairs) != len(want) {
		t.Fatalf("%d pairs, want %d; got:\n%s", len(pairs), len(want), got.String())
	}
	for i, p := range pairs {
		w := want[i]
		if l, r := p.pair.Left.Preds[0].Value.String(), p.pair.Right.Preds[0].Value.String(); l != w.left || r != w.right || math.Float64bits(p.pair.EstSel) != w.estSel {
			t.Fatalf("pair %d: %s/%s EstSel %v, want %s/%s %v; got:\n%s", i, l, r, p.pair.EstSel, w.left, w.right, math.Float64frombits(w.estSel), got.String())
		}
	}
}
