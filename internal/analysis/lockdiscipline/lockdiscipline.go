// Package lockdiscipline enforces two locking rules the serving stack
// depends on:
//
//  1. Snapshot probes stay registry-lock-free. Probes registered with
//     Registry.RegisterProbe / RegisterProbeGroup are evaluated at
//     Snapshot time; a probe that calls back into a Registry method
//     that takes the registry mutex (Counter, Gauge, Histogram,
//     RegisterProbe, RegisterProbeGroup, Snapshot) re-enters the
//     registry — at best a surprise acquisition during metrics
//     collection, at worst a deadlock if snapshot internals change.
//     The analyzer walks each registered probe's body plus
//     same-package functions it calls and flags any such call.
//
//  2. Canonical acquisition order between named mutex fields. The
//     cluster's control-plane lock precedes its replica lock (ctrlMu
//     before replicaMu: ReplaceReplica holds ctrlMu, so no rebalance or
//     publish interleaves, while it swaps a replica under replicaMu).
//     Acquiring them in the inverted order — or re-acquiring a lock
//     already held on the same receiver (mu included), directly or
//     through a same-receiver method call — is flagged. The order is
//     the Order variable; fields not listed are ignored.
package lockdiscipline

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the lock-discipline checker.
var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc:  "snapshot probes must not acquire the registry lock; named mutexes acquire in canonical order without re-entry",
	Run:  run,
}

// Order lists mutex field/variable names in canonical acquisition
// order: a lock may only be taken while every held lock (on the same
// receiver) appears earlier in this list.
var Order = []string{"ctrlMu", "replicaMu", "mu"}

// lockingRegistryMethods are the Registry methods that acquire the
// registry mutex (or, for Snapshot, re-enter probe evaluation).
var lockingRegistryMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"RegisterProbe": true, "RegisterProbeGroup": true, "Snapshot": true,
}

func rank(name string) int {
	for i, n := range Order {
		if n == name {
			return i
		}
	}
	return -1
}

func run(pass *analysis.Pass) error {
	checkProbes(pass)
	checkLockOrder(pass)
	return nil
}

// --- rule 1: probe lock-freedom ---

func checkProbes(pass *analysis.Pass) {
	funcs := packageFuncs(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !isRegistryRecv(pass, sel.X) {
				return true
			}
			if sel.Sel.Name != "RegisterProbe" && sel.Sel.Name != "RegisterProbeGroup" {
				return true
			}
			for _, arg := range call.Args {
				walkProbe(pass, funcs, arg, 0)
			}
			return true
		})
	}
}

// walkProbe inspects a probe function (a literal, or a reference to a
// same-package function) and everything it calls in-package, flagging
// registry-lock acquisitions.
func walkProbe(pass *analysis.Pass, funcs map[types.Object]*ast.FuncDecl, fn ast.Expr, depth int) {
	if depth > 5 {
		return
	}
	var body *ast.BlockStmt
	switch fn := fn.(type) {
	case *ast.FuncLit:
		body = fn.Body
	case *ast.Ident:
		if fd := funcs[pass.Info.Uses[fn]]; fd != nil {
			body = fd.Body
		}
	case *ast.SelectorExpr:
		if fd := funcs[pass.Info.Uses[fn.Sel]]; fd != nil {
			body = fd.Body
		}
	}
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isRegistryRecv(pass, sel.X) {
			if lockingRegistryMethods[sel.Sel.Name] {
				pass.Report(analysis.Diagnostic{Pos: call.Pos(),
					Message: "snapshot probe reaches Registry." + sel.Sel.Name +
						", which acquires the registry lock; resolve handles at registration time"})
			}
			return true
		}
		// Follow same-package callees.
		walkProbe(pass, funcs, call.Fun, depth+1)
		return true
	})
}

// isRegistryRecv reports whether e's type is *Registry or Registry
// (any package — the obs one in production, a local one in testdata).
func isRegistryRecv(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.Info.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

// packageFuncs indexes the package's function and method declarations
// by their object, for probe body resolution.
func packageFuncs(pass *analysis.Pass) map[types.Object]*ast.FuncDecl {
	out := make(map[types.Object]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out[pass.Info.Defs[fd.Name]] = fd
			}
		}
	}
	return out
}

// --- rule 2: acquisition order and re-entry ---

// lockCall describes one mutex operation: s.mu.Lock() has owner "s",
// field "mu".
type lockCall struct {
	owner   string // receiver/variable expression, printed
	field   string // mutex field or variable name, must be in Order
	acquire bool
	defers  bool
}

// methodSummary maps a method object to the set of Order-listed mutex
// fields it may acquire on its own receiver, transitively through
// same-receiver calls.
type methodSummary map[types.Object]map[string]bool

func checkLockOrder(pass *analysis.Pass) {
	summaries := buildSummaries(pass)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			held := map[string]bool{}
			scanStmts(pass, summaries, fd, fd.Body.List, held, false)
		}
	}
}

// scanStmts walks statements in order, tracking held locks. Branch
// bodies get a copy of the held set (locks taken inside a branch do
// not leak out — matching the straight-line style the repo uses).
func scanStmts(pass *analysis.Pass, sums methodSummary, fd *ast.FuncDecl, stmts []ast.Stmt, held map[string]bool, inDefer bool) {
	for _, s := range stmts {
		scanStmt(pass, sums, fd, s, held, inDefer)
	}
}

func scanStmt(pass *analysis.Pass, sums methodSummary, fd *ast.FuncDecl, s ast.Stmt, held map[string]bool, inDefer bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		scanExpr(pass, sums, fd, s.X, held, inDefer)
	case *ast.DeferStmt:
		scanExpr(pass, sums, fd, s.Call, held, true)
	case *ast.GoStmt:
		// The spawned function runs elsewhere with no locks held.
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			scanExpr(pass, sums, fd, e, held, inDefer)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			scanStmt(pass, sums, fd, s.Init, held, inDefer)
		}
		scanExpr(pass, sums, fd, s.Cond, held, inDefer)
		scanStmts(pass, sums, fd, s.Body.List, copyHeld(held), inDefer)
		if s.Else != nil {
			scanStmt(pass, sums, fd, s.Else, copyHeld(held), inDefer)
		}
	case *ast.BlockStmt:
		scanStmts(pass, sums, fd, s.List, held, inDefer)
	case *ast.ForStmt:
		scanStmts(pass, sums, fd, s.Body.List, copyHeld(held), inDefer)
	case *ast.RangeStmt:
		scanExpr(pass, sums, fd, s.X, held, inDefer)
		scanStmts(pass, sums, fd, s.Body.List, copyHeld(held), inDefer)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				scanStmts(pass, sums, fd, cc.Body, copyHeld(held), inDefer)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				scanStmts(pass, sums, fd, cc.Body, copyHeld(held), inDefer)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				scanStmts(pass, sums, fd, cc.Body, copyHeld(held), inDefer)
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			scanExpr(pass, sums, fd, e, held, inDefer)
		}
	}
}

// scanExpr finds mutex operations and same-receiver calls inside one
// expression, updating held in evaluation order.
func scanExpr(pass *analysis.Pass, sums methodSummary, fd *ast.FuncDecl, e ast.Expr, held map[string]bool, inDefer bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lc, ok := mutexOp(pass, call); ok {
			applyLockOp(pass, call, lc, held, inDefer)
			return false
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if callee := pass.Info.Uses[sel.Sel]; callee != nil {
				if fields := sums[callee]; len(fields) > 0 {
					owner := exprString(sel.X)
					for f := range fields {
						checkAcquire(pass, call, lockCall{owner: owner, field: f, acquire: true}, held,
							" (via call to "+sel.Sel.Name+")")
					}
				}
			}
		}
		return true
	})
}

func applyLockOp(pass *analysis.Pass, call *ast.CallExpr, lc lockCall, held map[string]bool, inDefer bool) {
	key := lc.owner + "." + lc.field
	if lc.acquire {
		checkAcquire(pass, call, lc, held, "")
		held[key] = true
		return
	}
	if !inDefer {
		delete(held, key)
	}
	// A deferred unlock releases at function exit: the lock stays held
	// for the rest of the scan, which is the point.
}

// checkAcquire reports re-entry and order inversions for acquiring lc
// with held locks.
func checkAcquire(pass *analysis.Pass, call *ast.CallExpr, lc lockCall, held map[string]bool, via string) {
	key := lc.owner + "." + lc.field
	if held[key] {
		pass.Report(analysis.Diagnostic{Pos: call.Pos(),
			Message: "re-entrant acquisition of " + key + via + " while already held"})
		return
	}
	r := rank(lc.field)
	for h := range held {
		howner, hfield, ok := splitKey(h)
		if !ok || howner != lc.owner {
			continue
		}
		if hr := rank(hfield); hr > r {
			pass.Report(analysis.Diagnostic{Pos: call.Pos(),
				Message: "acquiring " + key + via + " while holding " + h +
					" inverts the canonical lock order (" + orderString() + ")"})
		}
	}
}

// mutexOp decodes <owner>.<field>.Lock()/RLock()/Unlock()/RUnlock()
// where field is Order-listed and of type sync.Mutex / sync.RWMutex.
// Plain `mu.Lock()` on an Order-listed variable is owner "".
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) (lockCall, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockCall{}, false
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return lockCall{}, false
	}
	if !isSyncMutex(pass.Info.TypeOf(sel.X)) {
		return lockCall{}, false
	}
	switch x := sel.X.(type) {
	case *ast.Ident:
		if rank(x.Name) < 0 {
			return lockCall{}, false
		}
		return lockCall{owner: "", field: x.Name, acquire: acquire}, true
	case *ast.SelectorExpr:
		if rank(x.Sel.Name) < 0 {
			return lockCall{}, false
		}
		return lockCall{owner: exprString(x.X), field: x.Sel.Name, acquire: acquire}, true
	}
	return lockCall{}, false
}

// buildSummaries computes, to a fixed point, which Order-listed mutex
// fields each method may acquire on its own receiver.
func buildSummaries(pass *analysis.Pass) methodSummary {
	type mdecl struct {
		obj  types.Object
		fd   *ast.FuncDecl
		recv types.Object
	}
	var decls []mdecl
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			md := mdecl{obj: pass.Info.Defs[fd.Name], fd: fd}
			if names := fd.Recv.List[0].Names; len(names) == 1 {
				md.recv = pass.Info.Defs[names[0]]
			}
			decls = append(decls, md)
		}
	}
	sums := make(methodSummary, len(decls))
	for _, d := range decls {
		sums[d.obj] = map[string]bool{}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			cur := sums[d.obj]
			ast.Inspect(d.fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if lc, ok := mutexOp(pass, call); ok && lc.acquire {
					// Only receiver-owned locks enter the summary.
					if id, ok := receiverIdent(call); ok && d.recv != nil && pass.Info.Uses[id] == d.recv {
						if !cur[lc.field] {
							cur[lc.field] = true
							changed = true
						}
					}
					return false
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && d.recv != nil && pass.Info.Uses[id] == d.recv {
						for f := range sums[pass.Info.Uses[sel.Sel]] {
							if !cur[f] {
								cur[f] = true
								changed = true
							}
						}
					}
				}
				return true
			})
		}
	}
	return sums
}

// receiverIdent extracts s from s.mu.Lock().
func receiverIdent(call *ast.CallExpr) (*ast.Ident, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	id, ok := inner.X.(*ast.Ident)
	return id, ok
}

func isSyncMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func splitKey(key string) (owner, field string, ok bool) {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '.' {
			return key[:i], key[i+1:], true
		}
	}
	return "", "", false
}

func orderString() string {
	s := ""
	for i, n := range Order {
		if i > 0 {
			s += " before "
		}
		s += n
	}
	return s
}

// exprString renders a receiver expression for held-set keys.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	default:
		return "?"
	}
}
