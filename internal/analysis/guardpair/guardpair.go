// Package guardpair checks the EBR/QSBR guard discipline: every read-side
// guard acquired via ebr.Domain.Enter/EnterSlot must be released by a `defer g.Exit()` in the acquiring function, so that a
// panic between Enter and Exit cannot leak the reader count and wedge every
// later Synchronize. Guards must not escape the acquiring function: not
// returned, not stored into struct fields or composite literals, not passed
// to other functions, and not captured by goroutines.
//
// Rationale: an ebr.Guard pins an epoch parity open. A leaked guard is
// invisible to the leaking code — reads keep succeeding — but the next
// writer's Synchronize spins forever on the stuck stripe counter. PR 2
// converted the core read paths to deferred exits after exactly this class
// of bug; this analyzer keeps the rest of the tree (and future growth) on
// that discipline.
//
// The defining package (ebr) is exempt: it implements the guard
// protocol itself, including the deliberate non-deferred exit in the
// Enter retry loop and in Pinned.Repin.
//
// Additionally, a qsbr.Domain.Register result must not be discarded: a
// registered participant that never checkpoints stalls reclamation for the
// whole domain.
package guardpair

import (
	"go/ast"
	"go/token"
	"go/types"

	"rcuarray/internal/analysis"
)

// Analyzer is the guardpair analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "guardpair",
	Doc: "check that EBR read-side guards are released via defer in the acquiring " +
		"function and never escape it, and that QSBR participants are not discarded",
	Run: run,
}

// guardSources lists the (package, receiver type, method) triples whose
// results are guards under this discipline.
var guardSources = []struct{ pkg, recv, method string }{
	{"ebr", "Domain", "Enter"},
	{"ebr", "Domain", "EnterSlot"},
}

func run(pass *analysis.Pass) error {
	// ebr implements the guard protocol and may manipulate guards
	// structurally.
	if analysis.PkgIs(pass.Pkg.Types, "ebr") {
		return nil
	}
	for _, file := range pass.Files() {
		analysis.FuncScopes(file, func(node ast.Node, body *ast.BlockStmt) {
			checkScope(pass, body)
		})
	}
	return nil
}

// isGuardAcquire reports whether call produces a guard.
func isGuardAcquire(info *types.Info, call *ast.CallExpr) bool {
	for _, src := range guardSources {
		if analysis.IsMethodCall(info, call, src.pkg, src.recv, src.method) {
			return true
		}
	}
	return false
}

// isRegister reports whether call is qsbr.Domain.Register.
func isRegister(info *types.Info, call *ast.CallExpr) bool {
	return analysis.IsMethodCall(info, call, "qsbr", "Domain", "Register")
}

// guardUse accumulates how one guard-bound local is used in its scope.
type guardUse struct {
	obj        types.Object
	acquirePos ast.Expr // the Enter call
	deferExit  bool     // defer g.Exit() (directly or via deferred closure)
	plainExit  ast.Node // first non-deferred g.Exit()
	escape     ast.Node // first use that lets the guard leave the scope
	escapeWhat string
}

func checkScope(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	guards := make(map[types.Object]*guardUse)

	// Pass 1: find acquisitions and classify their immediate context.
	analysis.ScopeInspect(body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			if call, ok := stmt.X.(*ast.CallExpr); ok {
				if isGuardAcquire(info, call) {
					pass.Reportf(call.Pos(), "guard discarded: the reader never exits and Synchronize will hang; assign it and defer Exit")
					return false
				}
				if isRegister(info, call) {
					pass.Reportf(call.Pos(), "qsbr participant discarded: a registered participant that never checkpoints stalls reclamation; keep it (and Unregister it)")
					return false
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range stmt.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isGuardAcquire(info, call) {
					continue
				}
				// Match the LHS (1:1 or single-call assignment).
				var lhs ast.Expr
				if len(stmt.Lhs) == len(stmt.Rhs) {
					lhs = stmt.Lhs[i]
				} else if len(stmt.Rhs) == 1 {
					lhs = stmt.Lhs[0]
				}
				id, _ := lhs.(*ast.Ident)
				if id == nil {
					pass.Reportf(call.Pos(), "guard stored outside a local variable: guards must stay in the acquiring function")
					continue
				}
				if id.Name == "_" {
					pass.Reportf(call.Pos(), "guard discarded (assigned to _): the reader never exits and Synchronize will hang")
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil {
					continue
				}
				if g, ok := guards[obj]; ok {
					// Reacquisition through the same variable (repin
					// loop); keep the first record, it still needs a
					// deferred release.
					_ = g
					continue
				}
				guards[obj] = &guardUse{obj: obj, acquirePos: call}
			}
		case *ast.ValueSpec:
			for i, rhs := range stmt.Values {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isGuardAcquire(info, call) {
					continue
				}
				var id *ast.Ident
				if len(stmt.Names) == len(stmt.Values) {
					id = stmt.Names[i]
				} else if len(stmt.Values) == 1 {
					id = stmt.Names[0]
				}
				if id == nil || id.Name == "_" {
					pass.Reportf(call.Pos(), "guard discarded: the reader never exits and Synchronize will hang")
					continue
				}
				if obj := info.Defs[id]; obj != nil {
					guards[obj] = &guardUse{obj: obj, acquirePos: call}
				}
			}
		}
		return true
	})

	// Direct non-local uses: return d.Enter(), f(d.Enter()), T{g: d.Enter()}.
	analysis.ScopeInspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isGuardAcquire(info, call) {
			return true
		}
		switch parent := enclosing(body, call).(type) {
		case *ast.ReturnStmt:
			pass.Reportf(call.Pos(), "guard returned from acquiring function: guards must not escape the function that entered the critical section")
		case *ast.CallExpr:
			if parent != call {
				pass.Reportf(call.Pos(), "guard passed to another function: guards must not escape the function that entered the critical section")
			}
		case *ast.CompositeLit, *ast.KeyValueExpr:
			pass.Reportf(call.Pos(), "guard stored in a composite literal: guards must not escape the function that entered the critical section")
		}
		return true
	})

	if len(guards) == 0 {
		return
	}

	// Pass 2: classify every use of each guard variable.
	analysis.ScopeInspect(body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.DeferStmt:
			// defer g.Exit()
			if obj := exitReceiver(info, stmt.Call); obj != nil {
				if g, ok := guards[obj]; ok {
					g.deferExit = true
				}
				return false
			}
			// defer func() { ... g.Exit() ... }()
			if lit, ok := stmt.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						if obj := exitReceiver(info, call); obj != nil {
							if g, ok := guards[obj]; ok {
								g.deferExit = true
							}
						}
					}
					return true
				})
			}
			// Do not descend: a deferred closure releasing the guard is
			// the sanctioned pattern, not a capture escape.
			return false
		case *ast.ExprStmt:
			if call, ok := stmt.X.(*ast.CallExpr); ok {
				if obj := exitReceiver(info, call); obj != nil {
					if g, ok := guards[obj]; ok && g.plainExit == nil {
						g.plainExit = call
					}
					return false
				}
			}
		case *ast.FuncLit:
			// A literal capturing a guard: allowed only when the whole
			// literal is a deferred call (handled above — ScopeInspect
			// stops at literals, and the DeferStmt case pre-empts this
			// by returning false). Anything else is an escape: the
			// guard may outlive the scope or exit on another goroutine.
			for obj, g := range guards {
				if g.escape == nil && usesObject(info, stmt, obj) {
					g.escape = stmt
					g.escapeWhat = "captured by a function literal"
				}
			}
			return false
		case *ast.ReturnStmt:
			for _, res := range stmt.Results {
				if obj := identObj(info, res); obj != nil {
					if g, ok := guards[obj]; ok && g.escape == nil {
						g.escape = stmt
						g.escapeWhat = "returned"
					}
				}
			}
		case *ast.CallExpr:
			// g passed as an argument (methods on g itself are fine).
			for _, arg := range stmt.Args {
				if obj := identObj(info, arg); obj != nil {
					if g, ok := guards[obj]; ok && g.escape == nil {
						g.escape = arg
						g.escapeWhat = "passed to another function"
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range stmt.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if obj := identObj(info, elt); obj != nil {
					if g, ok := guards[obj]; ok && g.escape == nil {
						g.escape = elt
						g.escapeWhat = "stored in a composite literal"
					}
				}
			}
		case *ast.UnaryExpr:
			// &g outside a method call: the pointer can travel anywhere.
			if stmt.Op == token.AND {
				if obj := identObj(info, stmt.X); obj != nil {
					if g, ok := guards[obj]; ok && g.escape == nil {
						g.escape = stmt
						g.escapeWhat = "address taken"
					}
				}
			}
		case *ast.AssignStmt:
			// x.f = g / x = g: storing the guard outside the local.
			for i, rhs := range stmt.Rhs {
				obj := identObj(info, rhs)
				if obj == nil {
					continue
				}
				g, ok := guards[obj]
				if !ok || g.escape != nil {
					continue
				}
				if i < len(stmt.Lhs) {
					// `_ = g` is a no-op, not an escape.
					if id, isID := stmt.Lhs[i].(*ast.Ident); isID && id.Name == "_" {
						continue
					}
					if _, isSel := stmt.Lhs[i].(*ast.SelectorExpr); isSel {
						g.escape = stmt
						g.escapeWhat = "stored in a struct field"
						continue
					}
					if _, isIdx := stmt.Lhs[i].(*ast.IndexExpr); isIdx {
						g.escape = stmt
						g.escapeWhat = "stored in a container"
						continue
					}
				}
				g.escape = stmt
				g.escapeWhat = "copied to another variable"
			}
		}
		return true
	})

	for _, g := range guards {
		switch {
		case g.escape != nil:
			pass.Reportf(g.escape.Pos(), "guard %s: guards must not escape the acquiring function", g.escapeWhat)
		case g.deferExit && g.plainExit != nil:
			pass.Reportf(g.plainExit.Pos(), "guard released both by defer and by a direct Exit call: the second release panics (double Exit)")
		case g.deferExit:
			// The discipline.
		case g.plainExit != nil:
			pass.Reportf(g.acquirePos.Pos(), "guard released without defer: a panic between Enter and Exit leaks the reader and wedges Synchronize; use `defer g.Exit()`")
		default:
			pass.Reportf(g.acquirePos.Pos(), "guard is never released in the acquiring function: the reader leaks and Synchronize will hang")
		}
	}
}

// exitReceiver returns the object of g when call is g.Exit() on an
// ebr.Guard local, else nil.
func exitReceiver(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Exit" {
		return nil
	}
	recv := analysis.ReceiverOf(info, call)
	if recv == nil {
		return nil
	}
	if !analysis.NamedType(recv, "ebr", "Guard") {
		return nil
	}
	return identObj(info, sel.X)
}

// identObj resolves an expression to the local object it names, unwrapping
// parentheses.
func identObj(info *types.Info, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// usesObject reports whether node references obj anywhere.
func usesObject(info *types.Info, node ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// enclosing returns the innermost node in body that is the direct parent of
// target, or nil.
func enclosing(body *ast.BlockStmt, target ast.Node) ast.Node {
	var parent ast.Node
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if parent != nil {
			return false
		}
		if n == nil {
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
			return true
		}
		if n == target {
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			return false
		}
		stack = append(stack, n)
		return true
	})
	return parent
}
