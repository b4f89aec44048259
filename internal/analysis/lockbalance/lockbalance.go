// Package lockbalance enforces, path-sensitively, that every
// sync.Mutex/RWMutex acquisition is matched by a release on every path out
// of the function — and that nothing blocking happens while the lock is
// provably held.
//
// It is the flow-sensitive successor to the held-across checks that
// PR 4's locksafe pass ran with a linear statement scan: locksafe keeps
// its flow-insensitive checks (lock copies, mixed atomic/plain access),
// while this pass reasons about actual control-flow paths via
// internal/analysis/cfg and the internal/analysis/dataflow must-lattice:
//
//   - balance: a Lock/RLock whose lock may still be held at the exit block
//     — an early return between Lock and Unlock, a branch that skips the
//     release — is reported at the acquisition site. Write and read locks
//     are tracked independently per receiver expression.
//
//   - panic paths: a panic while the lock is held, with no deferred
//     unlock scheduled on that path, leaves the lock held while the stack
//     unwinds past recover — reported separately, since the cure (defer)
//     differs from the cure for a missed branch.
//
//   - held-across: a channel send or a Query* call at a point where a
//     lock is held on *every* path into it (the must direction, so
//     branch-dependent holds do not false-positive) serializes every peer
//     behind a blocking operation. This subsumes locksafe's linear
//     held-across scan: the lock state now survives joins, loops, and
//     gotos correctly.
//
// A deferred unlock sets the state to released at the defer statement:
// from that point on, every exit — return or panic — runs it. That models
// exactly the paths the defer actually guards (a conditional defer only
// covers its branch). sync.Mutex.TryLock is ignored: its acquisition is
// conditional on the return value, which a 4-point lattice cannot track,
// and the codebase does not use it.
package lockbalance

import (
	"go/ast"
	"go/types"
	"strings"

	"qpiad/internal/analysis"
	"qpiad/internal/analysis/cfg"
	"qpiad/internal/analysis/dataflow"
	"qpiad/internal/analysis/flow"
)

// Analyzer is the lockbalance pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockbalance",
	Doc:  "flag locks not released on every path (early return, panic past a missing defer) and blocking operations while a lock is held",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, fn := range flow.Functions(f) {
			checkFunc(pass, fn)
		}
	}
	return nil
}

// lockKey identifies one lock in one function: the receiver expression
// plus which half of an RWMutex it is.
type lockKey struct {
	recv string // types.ExprString of the receiver
	read bool   // RLock/RUnlock vs Lock/Unlock
}

func (k lockKey) String() string {
	if k.read {
		return k.recv + " (read-locked)"
	}
	return k.recv
}

// op is one lock operation found in the function body.
type op struct {
	key      lockKey
	acquire  bool
	deferred bool
	call     *ast.CallExpr
	stmt     ast.Stmt // the ExprStmt or DeferStmt carrying the call
}

func checkFunc(pass *analysis.Pass, fn flow.Function) {
	ops := collectOps(pass, fn.Body)
	if len(ops) == 0 {
		return
	}
	byNode := make(map[ast.Node]*op, len(ops))
	for _, o := range ops {
		byNode[o.stmt] = o
	}

	g := cfg.New(fn.Body, nil)

	// At entry no lock is held: seed every key with No so a branch that
	// skips the Lock carries a real "unheld" fact to the join (Bottom would
	// be absorbed and make a conditional Lock look unconditional).
	entry := dataflow.State{}
	for _, o := range ops {
		entry.Set(o.key, dataflow.No)
	}

	// Two solves over the same graph, differing in what a deferred unlock
	// means. For balance, a deferred release covers every exit reached
	// after the defer statement: model it as an immediate release. For
	// held-across, the opposite is true: the lock stays physically held
	// until the function actually returns, so a deferred release is a
	// no-op and every statement after it still runs under the lock.
	balanceXfer := func(n ast.Node, st dataflow.State) {
		if o, ok := byNode[n]; ok {
			if o.acquire {
				st.Set(o.key, dataflow.Yes)
			} else {
				st.Set(o.key, dataflow.No)
			}
		}
	}
	heldXfer := func(n ast.Node, st dataflow.State) {
		if o, ok := byNode[n]; ok && !o.deferred {
			if o.acquire {
				st.Set(o.key, dataflow.Yes)
			} else {
				st.Set(o.key, dataflow.No)
			}
		}
	}

	reportUnbalanced(pass, g, dataflow.Forward(g, entry, balanceXfer), ops)
	reportHeldAcross(pass, g, dataflow.Forward(g, entry, heldXfer), byNode)
}

// reportUnbalanced flags acquisitions whose lock may still be held at the
// normal exit, or at a panic with no deferred release on the path.
func reportUnbalanced(pass *analysis.Pass, g *cfg.Graph, res *dataflow.Result, ops []*op) {
	exit := res.In[g.Exit]
	panicked := res.In[g.Panic]

	// One report per key: the first acquisition site speaks for the lock.
	reported := make(map[lockKey]bool)
	for _, o := range ops {
		if !o.acquire || reported[o.key] {
			continue
		}
		switch {
		case exit.Get(o.key) == dataflow.Yes:
			reported[o.key] = true
			pass.Reportf(o.call.Pos(),
				"%s is still locked at every return: missing %s", o.key, unlockName(o.key))
		case exit.Get(o.key) == dataflow.Top:
			reported[o.key] = true
			pass.Reportf(o.call.Pos(),
				"%s is not released on every path to return (early return between %s and %s?)",
				o.key, lockName(o.key), unlockName(o.key))
		case panicked != nil && (panicked.Get(o.key) == dataflow.Yes || panicked.Get(o.key) == dataflow.Top):
			reported[o.key] = true
			pass.Reportf(o.call.Pos(),
				"%s is still held when a panic unwinds: release it with defer %s()", o.key, unlockName(o.key))
		}
	}
}

func lockName(k lockKey) string {
	if k.read {
		return "RLock"
	}
	return "Lock"
}

func unlockName(k lockKey) string {
	if k.read {
		return "RUnlock"
	}
	return "Unlock"
}

// reportHeldAcross walks every block replaying the held-solve transfer
// from its in-state, so each node sees the lock state at its own program
// point, and flags channel sends and Query* calls where some lock is
// must-held.
func reportHeldAcross(pass *analysis.Pass, g *cfg.Graph, res *dataflow.Result, byNode map[ast.Node]*op) {
	for _, b := range g.Blocks {
		st := res.In[b]
		if st == nil {
			continue // unreachable
		}
		st = st.Clone()
		for _, n := range b.Nodes {
			if heldKey, ok := anyMustHeld(st); ok {
				checkBlocking(pass, n, heldKey)
			}
			if o, ok := byNode[n]; ok && !o.deferred {
				if o.acquire {
					st.Set(o.key, dataflow.Yes)
				} else {
					st.Set(o.key, dataflow.No)
				}
			}
		}
	}
}

// anyMustHeld returns the lexically-smallest lock that is held on every
// path into this point (smallest for deterministic messages when several
// are held).
func anyMustHeld(st dataflow.State) (lockKey, bool) {
	var best lockKey
	found := false
	for k, v := range st {
		if v != dataflow.Yes {
			continue
		}
		lk, ok := k.(lockKey)
		if !ok {
			continue
		}
		if !found || lk.recv < best.recv || (lk.recv == best.recv && !lk.read && best.read) {
			best = lk
			found = true
		}
	}
	return best, found
}

// checkBlocking reports channel sends and Query* calls inside node n while
// held names a must-held lock. Nested function literals are skipped: their
// bodies run on another timeline.
func checkBlocking(pass *analysis.Pass, n ast.Node, held lockKey) {
	flow.LocalInspect(n, func(m ast.Node) bool {
		switch v := m.(type) {
		case *ast.SendStmt:
			pass.Reportf(v.Arrow,
				"channel send while %s is held: a blocking operation under a mutex serializes every peer", held.recv)
		case *ast.CallExpr:
			var name string
			switch fn := v.Fun.(type) {
			case *ast.SelectorExpr:
				name = fn.Sel.Name
			case *ast.Ident:
				name = fn.Name
			}
			if strings.HasPrefix(name, "Query") {
				pass.Reportf(v.Pos(),
					"%s call while %s is held: a blocking operation under a mutex serializes every peer", name, held.recv)
			}
		}
		return true
	})
}

// collectOps finds the Lock/RLock/Unlock/RUnlock statements in the body
// (as expression or defer statements; nested closures are separate
// functions and are skipped).
func collectOps(pass *analysis.Pass, body *ast.BlockStmt) []*op {
	var ops []*op
	flow.LocalInspect(body, func(n ast.Node) bool {
		var call *ast.CallExpr
		var stmt ast.Stmt
		var deferred bool
		switch s := n.(type) {
		case *ast.ExprStmt:
			call, _ = s.X.(*ast.CallExpr)
			stmt = s
		case *ast.DeferStmt:
			call = s.Call
			stmt = s
			deferred = true
		default:
			return true
		}
		if call == nil {
			return true
		}
		key, acquire, ok := classify(pass, call)
		if !ok {
			return true
		}
		if deferred && acquire {
			// `defer mu.Lock()` is essentially always a typo'd unlock;
			// leave it to code review rather than model it.
			return true
		}
		ops = append(ops, &op{key: key, acquire: acquire, deferred: deferred, call: call, stmt: stmt})
		return true
	})
	return ops
}

// classify decides whether call is a sync lock operation and which one.
// The method must come from package sync (directly or via embedding) so a
// user-defined Lock() is not misread.
func classify(pass *analysis.Pass, call *ast.CallExpr) (key lockKey, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return lockKey{}, false, false
	}
	switch sel.Sel.Name {
	case "Lock":
		key.read, acquire = false, true
	case "Unlock":
		key.read, acquire = false, false
	case "RLock":
		key.read, acquire = true, true
	case "RUnlock":
		key.read, acquire = true, false
	default:
		return lockKey{}, false, false
	}
	s, isMethod := pass.Info.Selections[sel]
	if !isMethod {
		return lockKey{}, false, false
	}
	fn, isFunc := s.Obj().(*types.Func)
	if !isFunc || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockKey{}, false, false
	}
	key.recv = types.ExprString(sel.X)
	return key, acquire, true
}
