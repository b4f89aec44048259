package nbc

import (
	"fmt"

	"qpiad/internal/afd"
	"qpiad/internal/relation"
)

// Mode selects the AFD/classifier combination strategy of Section 5.3.
type Mode uint8

const (
	// ModeHybridOneAFD uses the determining set of the highest-confidence
	// AFD when that confidence is at least HybridMinConfidence, and falls
	// back to all attributes otherwise. This is the strategy QPIAD ships
	// with (best accuracy in Table 3).
	ModeHybridOneAFD Mode = iota
	// ModeBestAFD always uses the highest-confidence AFD's determining set
	// (falling back to all attributes only when no AFD exists at all).
	ModeBestAFD
	// ModeEnsemble trains one classifier per mined AFD for the target and
	// combines their distributions by confidence-weighted averaging.
	ModeEnsemble
	// ModeAllAttributes ignores AFDs and uses every other attribute
	// (the no-feature-selection baseline).
	ModeAllAttributes
)

// String names the mode as in the paper's Table 3.
func (m Mode) String() string {
	switch m {
	case ModeHybridOneAFD:
		return "Hybrid One-AFD"
	case ModeBestAFD:
		return "Best AFD"
	case ModeEnsemble:
		return "Ensemble"
	case ModeAllAttributes:
		return "All Attributes"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// PredictorConfig tunes predictor construction.
type PredictorConfig struct {
	// Mode selects the combination strategy. Default ModeHybridOneAFD.
	Mode Mode
	// HybridMinConfidence is the AFD confidence below which Hybrid One-AFD
	// falls back to all attributes. The paper sets 0.5. Default 0.5.
	HybridMinConfidence float64
	// Classifier carries the underlying NBC settings.
	Classifier Config
}

func (c PredictorConfig) withDefaults() PredictorConfig {
	if c.HybridMinConfidence == 0 {
		c.HybridMinConfidence = 0.5
	}
	return c
}

// Predictor estimates the value distribution of one attribute's missing
// values, combining mined AFDs with Naive Bayes classifiers.
type Predictor struct {
	// Target is the attribute whose nulls this predictor completes.
	Target string
	// Mode records the strategy in use.
	Mode Mode
	// AFD is the dependency backing the primary classifier (zero-valued for
	// all-attribute fallbacks); used to "explain" relevance assessments.
	AFD afd.AFD
	// UsedFallback reports whether an all-attributes classifier was used
	// because no sufficiently confident AFD existed.
	UsedFallback bool

	classifiers []*Classifier
	weights     []float64
}

// TrainPredictor builds a predictor for target from the sample, the mined
// AFD result, and the configuration.
func TrainPredictor(sample *relation.Relation, target string, mined *afd.Result, cfg PredictorConfig) (*Predictor, error) {
	cfg = cfg.withDefaults()
	p := &Predictor{Target: target, Mode: cfg.Mode}

	allOther := make([]string, 0, sample.Schema.Len()-1)
	for _, n := range sample.Schema.Names() {
		if n != target {
			allOther = append(allOther, n)
		}
	}
	trainAll := func() error {
		cl, err := Train(sample, target, allOther, cfg.Classifier)
		if err != nil {
			return err
		}
		p.classifiers = []*Classifier{cl}
		p.weights = []float64{1}
		p.UsedFallback = true
		return nil
	}

	best, hasBest := afd.AFD{}, false
	if mined != nil {
		best, hasBest = mined.Best(target)
	}

	switch cfg.Mode {
	case ModeAllAttributes:
		if err := trainAll(); err != nil {
			return nil, err
		}
		p.UsedFallback = false
	case ModeBestAFD:
		if !hasBest {
			if err := trainAll(); err != nil {
				return nil, err
			}
			break
		}
		cl, err := Train(sample, target, best.Determining, cfg.Classifier)
		if err != nil {
			return nil, err
		}
		p.classifiers = []*Classifier{cl}
		p.weights = []float64{1}
		p.AFD = best
	case ModeHybridOneAFD:
		if !hasBest || best.Confidence < cfg.HybridMinConfidence {
			if err := trainAll(); err != nil {
				return nil, err
			}
			break
		}
		cl, err := Train(sample, target, best.Determining, cfg.Classifier)
		if err != nil {
			return nil, err
		}
		p.classifiers = []*Classifier{cl}
		p.weights = []float64{1}
		p.AFD = best
	case ModeEnsemble:
		deps := []afd.AFD(nil)
		if mined != nil {
			deps = mined.ForDependent(target)
		}
		if len(deps) == 0 {
			if err := trainAll(); err != nil {
				return nil, err
			}
			break
		}
		for _, d := range deps {
			cl, err := Train(sample, target, d.Determining, cfg.Classifier)
			if err != nil {
				return nil, err
			}
			p.classifiers = append(p.classifiers, cl)
			p.weights = append(p.weights, d.Confidence)
		}
		p.AFD = deps[0]
	default:
		return nil, fmt.Errorf("nbc: unknown mode %v", cfg.Mode)
	}
	return p, nil
}

// Features returns the union of feature attributes across the predictor's
// classifiers, in first-appearance order. For single-classifier modes this
// is the determining set driving query rewriting.
func (p *Predictor) Features() []string {
	seen := make(map[string]bool)
	var out []string
	for _, cl := range p.classifiers {
		for _, f := range cl.Features {
			if !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	return out
}

// Classes returns the candidate target values, in the order every
// distribution the predictor returns lists them.
func (p *Predictor) Classes() []relation.Value {
	return p.classifiers[0].Classes()
}

// PredictEvidence returns the distribution over target values given the
// evidence map, combining classifier outputs per the predictor's mode.
func (p *Predictor) PredictEvidence(evidence map[string]relation.Value) Distribution {
	if len(p.classifiers) == 1 {
		return p.classifiers[0].PredictEvidence(evidence)
	}
	// Confidence-weighted average, class by class. Every classifier was
	// trained on the same sample and target, and Train lists classes in
	// their order of first appearance there, so all class lists coincide.
	first := p.classifiers[0]
	weights := make([]float64, len(first.classes))
	for i, cl := range p.classifiers {
		d := cl.PredictEvidence(evidence)
		w := p.weights[i]
		for j := range weights {
			weights[j] += w * d.ProbAt(j)
		}
	}
	normalize(weights)
	return first.distribution(weights)
}

// Predict returns the distribution for tuple t under schema s, using t's
// non-null feature values as evidence.
func (p *Predictor) Predict(s *relation.Schema, t relation.Tuple) Distribution {
	ev := make(map[string]relation.Value)
	for _, f := range p.Features() {
		if i, ok := s.Index(f); ok {
			ev[f] = t[i]
		}
	}
	return p.PredictEvidence(ev)
}

// Explain describes the knowledge backing this predictor, mirroring the
// QPIAD UI's justification snippets ("the learned AFD Model ~> Body Style").
func (p *Predictor) Explain() string {
	if p.UsedFallback || len(p.AFD.Determining) == 0 {
		return fmt.Sprintf("NBC over all attributes (no confident AFD for %s)", p.Target)
	}
	return fmt.Sprintf("learned AFD %s", p.AFD)
}
