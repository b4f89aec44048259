// Package nbc implements the AFD-enhanced Naive Bayes classifiers QPIAD
// uses to estimate the probability distribution over the completions of a
// missing value (Section 5.2 of the paper).
//
// A Classifier is a plain Naive Bayes model with m-estimate (Laplacian
// variant) smoothing over a fixed feature set. A Predictor wraps one or
// more classifiers according to the feature-selection strategies of
// Section 5.3: Best-AFD, Hybrid One-AFD (the paper's choice), an ensemble
// of per-AFD classifiers, and the no-selection All-Attributes baseline.
package nbc

import (
	"fmt"
	"math"
	"sort"

	"qpiad/internal/relation"
)

// Distribution is a probability distribution over candidate values of one
// attribute. Probabilities sum to 1 (up to floating point error).
//
// Every distribution a Classifier or Predictor returns lines up position
// for position with its class list (Classes): Value(i) is the i-th class
// for every prediction, ensembles included. Such distributions share the
// classifier's training-time value index instead of building one per
// prediction, so callers can evaluate a test once per class and read any
// prediction by position.
type Distribution struct {
	vals  []relation.Value
	probs []float64
	// index maps a value's canonical key to its position, for Prob. It is
	// shared and never written after construction.
	index map[string]int
}

// NewDistribution normalizes non-negative weights over candidate values
// into a Distribution. Zero total weight yields the uniform distribution.
// Other prediction packages (association rules, Bayes nets) reuse this so
// that every predictor in the system speaks the same distribution type.
// When vals repeats a value's key, Prob reads the last occurrence.
func NewDistribution(vals []relation.Value, weights []float64) Distribution {
	return newDistribution(vals, weights)
}

// newDistribution normalizes a copy of the weights into a distribution
// with its own value index.
func newDistribution(vals []relation.Value, weights []float64) Distribution {
	probs := make([]float64, len(weights))
	copy(probs, weights)
	normalize(probs)
	idx := make(map[string]int, len(vals))
	for i, v := range vals {
		idx[v.Key()] = i
	}
	return Distribution{vals: vals, probs: probs, index: idx}
}

// normalize scales non-negative weights in place to sum to 1: the weights
// are summed in order and each is divided by the total. Zero total weight
// gives the uniform distribution.
func normalize(w []float64) {
	total := 0.0
	for _, x := range w {
		total += x
	}
	if total > 0 {
		for i, x := range w {
			w[i] = x / total
		}
	} else if len(w) > 0 {
		u := 1.0 / float64(len(w))
		for i := range w {
			w[i] = u
		}
	}
}

// Len returns the number of candidate values.
func (d Distribution) Len() int { return len(d.vals) }

// Value returns the i-th candidate value.
func (d Distribution) Value(i int) relation.Value { return d.vals[i] }

// ProbAt returns the probability of the i-th candidate value.
func (d Distribution) ProbAt(i int) float64 { return d.probs[i] }

// Prob returns the probability assigned to value v (0 if v is not a
// candidate).
func (d Distribution) Prob(v relation.Value) float64 {
	var buf [64]byte
	if i, ok := d.index[string(v.AppendKey(buf[:0]))]; ok {
		return d.probs[i]
	}
	return 0
}

// Top returns the most likely value and its probability. ok is false for an
// empty distribution.
func (d Distribution) Top() (relation.Value, float64, bool) {
	if len(d.vals) == 0 {
		return relation.Null(), 0, false
	}
	best := 0
	for i := 1; i < len(d.probs); i++ {
		if d.probs[i] > d.probs[best] {
			best = i
		}
	}
	return d.vals[best], d.probs[best], true
}

// Entry pairs a candidate value with its probability.
type Entry struct {
	Value relation.Value
	Prob  float64
}

// Entries returns the distribution sorted by descending probability.
func (d Distribution) Entries() []Entry {
	out := make([]Entry, len(d.vals))
	for i := range d.vals {
		out[i] = Entry{d.vals[i], d.probs[i]}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Prob > out[j].Prob })
	return out
}

// Classifier is a Naive Bayes classifier predicting one target attribute
// from a fixed set of feature attributes.
type Classifier struct {
	// Target is the predicted attribute.
	Target string
	// Features are the evidence attributes (the AFD determining set, or all
	// other attributes for the no-selection baseline).
	Features []string

	m          float64 // m-estimate weight
	jointOff   bool
	jointM0    float64
	classes    []relation.Value
	classIdx   map[string]int // class key → position; predictions share it, read-only after Train
	classCount []int
	trainRows  int
	// counts[f][valueKey][classIdx] = co-occurrence count
	counts []map[string][]int
	// totals[f][classIdx] = rows of that class with non-null feature f
	totals [][]int
	// domain[f] = number of distinct non-null feature values seen
	domain []int
	// joint[combinedKey][classIdx] counts full feature-vector combinations
	// (rows non-null on every feature), for the joint backoff.
	joint map[string][]int
}

// Config tunes classifier training.
type Config struct {
	// M is the m-estimate weight (Mitchell's m). Default 1.
	M float64
	// DisableJointBackoff turns off joint determining-set conditioning.
	//
	// By default, when the evidence covers every feature, the classifier
	// blends the exact joint-combination posterior (the AFD semantics:
	// P(Am | dtrSet combination), whose argmax accuracy is the AFD's g3
	// confidence) with the factored NBC posterior, weighting the joint
	// estimate by its support: λ = n/(n + m0). Sparse combinations fall
	// back smoothly to NBC — exactly the regime NBC's independence
	// assumption is for. Feature vectors with many attributes rarely find
	// exact matches, so the all-attribute baseline is unaffected.
	DisableJointBackoff bool
	// JointM0 is the shrinkage mass of the joint backoff. Default 2.
	JointM0 float64
}

func (c Config) withDefaults() Config {
	if c.M == 0 {
		c.M = 1
	}
	if c.JointM0 == 0 {
		c.JointM0 = 2
	}
	return c
}

// Train fits a Naive Bayes classifier for target using the given feature
// attributes over the sample. Rows with a null target are skipped; null
// feature values are skipped per-feature (treated as missing evidence, not
// as a value). Train errors when the sample yields no usable rows.
func Train(sample *relation.Relation, target string, features []string, cfg Config) (*Classifier, error) {
	cfg = cfg.withDefaults()
	s := sample.Schema
	tcol, ok := s.Index(target)
	if !ok {
		return nil, fmt.Errorf("nbc: sample has no target attribute %q", target)
	}
	fcols := make([]int, len(features))
	for i, f := range features {
		c, ok := s.Index(f)
		if !ok {
			return nil, fmt.Errorf("nbc: sample has no feature attribute %q", f)
		}
		if f == target {
			return nil, fmt.Errorf("nbc: target %q cannot be its own feature", f)
		}
		fcols[i] = c
	}
	cl := &Classifier{
		Target:   target,
		Features: append([]string(nil), features...),
		m:        cfg.M,
		jointOff: cfg.DisableJointBackoff,
		jointM0:  cfg.JointM0,
		classIdx: make(map[string]int),
		counts:   make([]map[string][]int, len(features)),
		totals:   make([][]int, len(features)),
		domain:   make([]int, len(features)),
		joint:    make(map[string][]int),
	}
	for i := range cl.counts {
		cl.counts[i] = make(map[string][]int)
	}
	featDomains := make([]map[string]bool, len(features))
	for i := range featDomains {
		featDomains[i] = make(map[string]bool)
	}
	// First pass: the class domain.
	for _, t := range sample.Tuples() {
		v := t[tcol]
		if v.IsNull() {
			continue
		}
		if _, ok := cl.classIdx[v.Key()]; !ok {
			cl.classIdx[v.Key()] = len(cl.classes)
			cl.classes = append(cl.classes, v)
		}
	}
	if len(cl.classes) == 0 {
		return nil, fmt.Errorf("nbc: no non-null %q values in sample", target)
	}
	cl.classCount = make([]int, len(cl.classes))
	for i := range cl.totals {
		cl.totals[i] = make([]int, len(cl.classes))
	}
	// Second pass: counts. jbuf is reused across rows and the joint table
	// is looked up with joint[string(jbuf)], which does not copy, so a
	// joint key allocates only when a new combination is interned.
	var jbuf []byte
	for _, t := range sample.Tuples() {
		v := t[tcol]
		if v.IsNull() {
			continue
		}
		ci := cl.classIdx[v.Key()]
		cl.classCount[ci]++
		cl.trainRows++
		allPresent := len(fcols) > 0
		for fi, fc := range fcols {
			fv := t[fc]
			if fv.IsNull() {
				allPresent = false
				continue
			}
			k := fv.Key()
			featDomains[fi][k] = true
			row := cl.counts[fi][k]
			if row == nil {
				row = make([]int, len(cl.classes))
				cl.counts[fi][k] = row
			}
			row[ci]++
			cl.totals[fi][ci]++
		}
		if allPresent && !cl.jointOff {
			jbuf = t.AppendKeyOn(jbuf[:0], fcols)
			row := cl.joint[string(jbuf)]
			if row == nil {
				row = make([]int, len(cl.classes))
				cl.joint[string(jbuf)] = row
			}
			row[ci]++
		}
	}
	for i := range featDomains {
		cl.domain[i] = len(featDomains[i])
	}
	return cl, nil
}

// Classes returns the candidate target values observed during training, in
// the order every prediction's distribution lists them.
func (c *Classifier) Classes() []relation.Value {
	return append([]relation.Value(nil), c.classes...)
}

// prior returns the m-estimate-smoothed class prior.
func (c *Classifier) prior(ci int) float64 {
	p := 1.0 / float64(len(c.classes))
	return (float64(c.classCount[ci]) + c.m*p) / (float64(c.trainRows) + c.m)
}

// cond returns the m-estimate-smoothed P(feature fi = v | class ci), given
// v's count row (nil for a value unseen in training). The uniform prior
// reserves mass for one unseen value beyond the training domain, so no
// conditional probability is ever zero.
func (c *Classifier) cond(fi int, row []int, ci int) float64 {
	p := 1.0 / float64(c.domain[fi]+1)
	n := 0
	if row != nil {
		n = row[ci]
	}
	return (float64(n) + c.m*p) / (float64(c.totals[fi][ci]) + c.m)
}

// PredictEvidence computes P(target | evidence) for the given attribute →
// value evidence map. Evidence on attributes outside the feature set, and
// null evidence values, are ignored. With no usable evidence the smoothed
// class prior is returned.
//
// When the evidence covers every feature and the joint backoff is enabled,
// the factored NBC posterior is blended with the exact joint-combination
// posterior, weighted by the combination's training support (see Config).
func (c *Classifier) PredictEvidence(evidence map[string]relation.Value) Distribution {
	logw := make([]float64, len(c.classes))
	for ci := range c.classes {
		logw[ci] = math.Log(c.prior(ci))
	}
	allPresent := len(c.Features) > 0
	// Each feature value's key is appended to jbuf and its count row looked
	// up with counts[fi][string(key)], which does not copy. While every
	// feature is present, jbuf is also the joint key (the value keys joined
	// by \x1f); it is only consulted then.
	var arr [128]byte
	jbuf := arr[:0]
	for fi, f := range c.Features {
		v, ok := evidence[f]
		if !ok || v.IsNull() {
			allPresent = false
			continue
		}
		if fi > 0 {
			jbuf = append(jbuf, '\x1f')
		}
		start := len(jbuf)
		jbuf = v.AppendKey(jbuf)
		row := c.counts[fi][string(jbuf[start:])]
		for ci := range c.classes {
			logw[ci] += math.Log(c.cond(fi, row, ci))
		}
	}
	// Normalize in log space for stability. logw becomes the posterior in
	// place: the prediction allocates one probability slice.
	maxw := math.Inf(-1)
	for _, w := range logw {
		if w > maxw {
			maxw = w
		}
	}
	for i, w := range logw {
		logw[i] = math.Exp(w - maxw)
	}
	probs := logw
	normalize(probs)
	if c.jointOff || !allPresent {
		return c.distribution(probs)
	}
	row := c.joint[string(jbuf)]
	if row == nil {
		return c.distribution(probs)
	}
	n := 0
	for _, cnt := range row {
		n += cnt
	}
	if n == 0 {
		return c.distribution(probs)
	}
	lambda := float64(n) / (float64(n) + c.jointM0)
	for ci := range probs {
		jointP := float64(row[ci]) / float64(n)
		probs[ci] = lambda*jointP + (1-lambda)*probs[ci]
	}
	normalize(probs)
	return c.distribution(probs)
}

// distribution wraps normalized probabilities over the classifier's
// classes, sharing its class list and training-time index.
func (c *Classifier) distribution(probs []float64) Distribution {
	return Distribution{vals: c.classes, probs: probs, index: c.classIdx}
}

// Predict computes P(target | t) for a tuple under the given schema,
// using the tuple's non-null values on the classifier's feature attributes
// as evidence. Attributes missing from the schema are skipped, which lets a
// classifier trained on one source score tuples from a correlated source
// with a narrower local schema (Section 4.3).
func (c *Classifier) Predict(s *relation.Schema, t relation.Tuple) Distribution {
	ev := make(map[string]relation.Value, len(c.Features))
	for _, f := range c.Features {
		if i, ok := s.Index(f); ok {
			ev[f] = t[i]
		}
	}
	return c.PredictEvidence(ev)
}
