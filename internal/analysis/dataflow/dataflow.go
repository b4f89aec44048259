// Package dataflow is a small forward dataflow solver over
// internal/analysis/cfg graphs.
//
// The lattice is fixed and four-valued, per tracked key:
//
//	   Top  ("may": paths disagree)
//	  /   \
//	No     Yes  ("must not" / "must" hold the fact)
//	  \   /
//	  Bottom  (no information yet / unreachable)
//
// Join is the least upper bound: Bottom is the identity, equal values join
// to themselves, and No ⊔ Yes = Top. A State maps client-chosen keys
// (typically types.Object or definition sites) to Values; keys absent from
// a State are Bottom.
//
// Termination: the solver iterates a worklist of blocks, re-joining each
// block's in-state from its predecessors' out-states and re-running the
// client's transfer function. In-states only ever grow (join is monotone
// and the transfer function is required to be monotone in the usual sense:
// it writes fact updates, never "forgets" based on absent information).
// Each key's value can climb the lattice at most twice (Bottom→{No,Yes}→
// Top), and the key set is bounded by the facts the transfer function
// mentions — finitely many, fixed by the function's syntax. So every
// in-state reaches a fixed point after finitely many joins, each block is
// re-queued only when its in-state changed, and the worklist drains.
// DESIGN.md states the same argument alongside the CFG shape.
package dataflow

import (
	"go/ast"

	"qpiad/internal/analysis/cfg"
)

// Value is one point of the may/must lattice.
type Value uint8

const (
	// Bottom: no path has said anything about the key.
	Bottom Value = iota
	// No: on every path seen, the fact does not hold ("must not").
	No
	// Yes: on every path seen, the fact holds ("must").
	Yes
	// Top: paths disagree ("may").
	Top
)

func (v Value) String() string {
	switch v {
	case Bottom:
		return "⊥"
	case No:
		return "no"
	case Yes:
		return "yes"
	default:
		return "may"
	}
}

// Join returns the least upper bound of two values.
func Join(a, b Value) Value {
	switch {
	case a == b:
		return a
	case a == Bottom:
		return b
	case b == Bottom:
		return a
	default:
		return Top
	}
}

// State maps tracked keys to lattice values. Absent keys are Bottom.
type State map[any]Value

// Get returns the value for key (Bottom when absent).
func (s State) Get(key any) Value { return s[key] }

// Set records a value for key.
func (s State) Set(key any, v Value) { s[key] = v }

// Clone returns an independent copy.
func (s State) Clone() State {
	cp := make(State, len(s))
	for k, v := range s {
		cp[k] = v
	}
	return cp
}

// JoinInto joins src into s, reporting whether s changed.
func (s State) JoinInto(src State) bool {
	changed := false
	for k, v := range src {
		j := Join(s[k], v)
		if j != s[k] {
			s[k] = j
			changed = true
		}
	}
	return changed
}

// Equal reports whether two states assign the same value to every key
// (treating absent keys as Bottom).
func (s State) Equal(t State) bool {
	for k, v := range s {
		if t[k] != v {
			return false
		}
	}
	for k, v := range t {
		if s[k] != v {
			return false
		}
	}
	return true
}

// Transfer is the client's per-node effect: it mutates st in place to
// reflect executing n. It must be monotone (set facts; never lower a key
// toward Bottom based on a key being absent).
type Transfer func(n ast.Node, st State)

// Result holds the solved per-block states.
type Result struct {
	// In[b] is the joined state on entry to b.
	In map[*cfg.Block]State
	// Out[b] is In[b] after applying the transfer to b's nodes.
	Out map[*cfg.Block]State
}

// Forward solves the forward dataflow problem: entry is the state at the
// graph's entry block, transfer the per-node effect. Blocks unreachable
// from the entry keep nil In/Out (their facts never join anything).
func Forward(g *cfg.Graph, entry State, transfer Transfer) *Result {
	res := &Result{
		In:  make(map[*cfg.Block]State, len(g.Blocks)),
		Out: make(map[*cfg.Block]State, len(g.Blocks)),
	}
	res.In[g.Entry] = entry.Clone()

	// Worklist seeded with the entry; membership set avoids duplicates.
	work := []*cfg.Block{g.Entry}
	queued := map[*cfg.Block]bool{g.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false

		out := res.In[b].Clone()
		for _, n := range b.Nodes {
			transfer(n, out)
		}
		if prev, ok := res.Out[b]; ok && prev.Equal(out) {
			continue
		}
		res.Out[b] = out
		for _, s := range b.Succs {
			in, ok := res.In[s]
			if !ok {
				in = make(State)
				res.In[s] = in
			}
			if in.JoinInto(out) || !ok {
				if !queued[s] {
					queued[s] = true
					work = append(work, s)
				}
			}
		}
	}
	return res
}

// Effect classifies a node for ReachesUse queries.
type Effect int

const (
	// None: the node neither uses nor kills the tracked definition.
	None Effect = iota
	// Use: the node consumes the definition (stop: the def is live).
	Use
	// Kill: the node overwrites the definition (stop: this path cannot
	// use it anymore).
	Kill
)

// ReachesUse reports whether, starting from the node at position idx of
// block from (exclusive — the definition itself), some path reaches a node
// classified Use before one classified Kill. It is the def-use query the
// errdrop analyzer asks: "is this error value read on any path?".
func ReachesUse(g *cfg.Graph, from *cfg.Block, idx int, classify func(ast.Node) Effect) bool {
	// Scan the remainder of the defining block first.
	for _, n := range from.Nodes[idx+1:] {
		switch classify(n) {
		case Use:
			return true
		case Kill:
			return false
		}
	}
	seen := map[*cfg.Block]bool{}
	var walk func(*cfg.Block) bool
	walk = func(b *cfg.Block) bool {
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, n := range b.Nodes {
			switch classify(n) {
			case Use:
				return true
			case Kill:
				return false
			}
		}
		for _, s := range b.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	for _, s := range from.Succs {
		if walk(s) {
			return true
		}
	}
	return false
}
