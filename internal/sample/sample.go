// Package sample builds the mediator's offline knowledge sample by probing
// an autonomous source with random queries (Section 3 / 5.4 of the paper:
// "QPIAD mines attribute correlations, value distributions, and query
// selectivity using a small portion of data sampled from the autonomous
// database using random probing queries").
//
// The sampler never reads the backing relation directly — it only issues
// queries through the source's restricted interface, seeded with a few
// known attribute values and expanding its value pool from the tuples it
// retrieves (snowball probing). It also derives the two scaling statistics
// of Section 5.4: SmplRatio (database size over sample size, estimated by
// comparing result cardinalities) and PerInc (fraction of incomplete tuples
// seen while sampling).
package sample

import (
	"fmt"
	"math/rand"

	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// Config controls probing.
type Config struct {
	// TargetSize is the number of distinct tuples to collect.
	TargetSize int
	// ProbeAttrs are the attributes to bind in probe queries. Defaults to
	// every bindable attribute of the source.
	ProbeAttrs []string
	// Seeds provides initial attribute values to probe with. At least one
	// non-empty seed list (or a source that accepts an empty query) is
	// needed to bootstrap.
	Seeds map[string][]relation.Value
	// MaxProbes bounds the number of probe queries (0 = 20 × TargetSize).
	MaxProbes int
	// Rng drives the random choices; required for reproducibility.
	Rng *rand.Rand
}

// Result is the probing outcome.
type Result struct {
	// Sample holds the distinct tuples collected.
	Sample *relation.Relation
	// Probes is the number of probe queries issued.
	Probes int
	// PerInc is the fraction of sampled tuples that are incomplete
	// (Section 5.4's PerInc(R)).
	PerInc float64
}

// Probe collects a sample from src by random probing queries.
func Probe(src *source.Source, cfg Config) (*Result, error) {
	if cfg.Rng == nil {
		return nil, fmt.Errorf("sample: Config.Rng is required")
	}
	if cfg.TargetSize <= 0 {
		return nil, fmt.Errorf("sample: TargetSize must be positive")
	}
	attrs := cfg.ProbeAttrs
	if len(attrs) == 0 {
		for _, a := range src.Schema().Names() {
			if src.Supports(a) {
				attrs = append(attrs, a)
			}
		}
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("sample: source %s has no bindable attributes", src.Name())
	}
	maxProbes := cfg.MaxProbes
	if maxProbes == 0 {
		maxProbes = 20 * cfg.TargetSize
	}

	// Value pools per probe attribute, seeded then grown from results.
	pool := make(map[string][]relation.Value, len(attrs))
	poolSeen := make(map[string]map[string]bool, len(attrs))
	for _, a := range attrs {
		poolSeen[a] = make(map[string]bool)
		for _, v := range cfg.Seeds[a] {
			if !v.IsNull() && !poolSeen[a][v.Key()] {
				poolSeen[a][v.Key()] = true
				pool[a] = append(pool[a], v)
			}
		}
	}

	out := relation.New(src.Name()+"_sample", src.Schema())
	seen := make(map[string]bool)
	res := &Result{}
	incomplete := 0

	addTuple := func(t relation.Tuple) {
		k := t.Key()
		if seen[k] {
			return
		}
		seen[k] = true
		// A probe's rows share one allocation, and the sample keeps only
		// some of them: a copy per kept tuple lets the rest be collected.
		out.MustInsert(t.Clone())
		if !t.IsComplete() {
			incomplete++
		}
		// Grow the probe pools from the new tuple.
		for _, a := range attrs {
			i, ok := src.Schema().Index(a)
			if !ok {
				continue
			}
			v := t[i]
			if v.IsNull() || poolSeen[a][v.Key()] {
				continue
			}
			poolSeen[a][v.Key()] = true
			pool[a] = append(pool[a], v)
		}
	}

	for res.Probes < maxProbes && out.Len() < cfg.TargetSize {
		// Pick a random attribute with a non-empty pool.
		candidates := attrs[:0:0]
		for _, a := range attrs {
			if len(pool[a]) > 0 {
				candidates = append(candidates, a)
			}
		}
		if len(candidates) == 0 {
			return nil, fmt.Errorf("sample: no seed values to probe source %s with", src.Name())
		}
		a := candidates[cfg.Rng.Intn(len(candidates))]
		v := pool[a][cfg.Rng.Intn(len(pool[a]))]
		res.Probes++
		rows, err := src.Query(relation.NewQuery(src.Name(), relation.Eq(a, v)))
		if err != nil {
			return nil, fmt.Errorf("sample: probe failed: %w", err)
		}
		for _, t := range rows {
			addTuple(t)
			if out.Len() >= cfg.TargetSize {
				break
			}
		}
	}
	if out.Len() == 0 {
		return nil, fmt.Errorf("sample: probing source %s yielded no tuples in %d probes", src.Name(), res.Probes)
	}
	res.Sample = out
	res.PerInc = float64(incomplete) / float64(out.Len())
	return res, nil
}

// EstimateRatio estimates SmplRatio(R) — the original database size over
// the sample size — by issuing each probe query to both the source and the
// sample and averaging the cardinality ratios (Section 5.4). Queries with
// empty sample results are skipped; ok is false when every probe was
// skipped.
func EstimateRatio(src *source.Source, smpl *relation.Relation, probes []relation.Query) (float64, bool) {
	sum, n := 0.0, 0
	for _, q := range probes {
		inSample := len(smpl.Select(q))
		if inSample == 0 {
			continue
		}
		rows, err := src.Query(q)
		if err != nil {
			continue
		}
		sum += float64(len(rows)) / float64(inSample)
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}
