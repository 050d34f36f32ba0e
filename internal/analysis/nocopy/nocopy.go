// Package nocopy detects by-value copies of the repo's non-copyable
// concurrency types, beyond what go vet's copylocks sees.
//
// A type is non-copyable when any of the following holds:
//
//   - its declaration doc comment says so ("must not be copied"): the doc
//     contract IS the analyzer configuration, so marking a new type is one
//     comment, not an analyzer change (ebr.Domain, ebr.Pinned, core.Reader,
//     ... already carry the phrase);
//   - it is a read-side guard (ebr.Guard): a copied guard
//     shares the stripe counter but not the double-exit latch, so exiting
//     both the original and the copy silently corrupts the reader count —
//     the exact failure Guard.Exit's underflow panic exists to catch;
//   - it is a sync or sync/atomic type, or (recursively) a struct or array
//     containing a non-copyable type. The containment closure is what
//     copylocks also does; carrying it here means doc-marked types poison
//     their containers too (a struct embedding an ebr.Pinned is itself
//     non-copyable).
//
// Flagged copy sites: value (non-pointer) method receivers, var-to-var
// assignments, by-value argument passing, range-value copies, composite
// literal field values, and pointer-dereference copies. Fresh values —
// function results and composite literals on the right-hand side — are
// allowed, matching copylocks' "ok before first use" semantics: that is how
// constructors like ebr.Domain.Pin hand the object to its owner.
package nocopy

import (
	"go/ast"
	"go/types"

	"rcuarray/internal/analysis"
)

// Analyzer is the nocopy analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "nocopy",
	Doc: "detect by-value copies of guards, pinned sessions, padded counters, and " +
		"every type documented 'must not be copied' (plus their containers)",
	Run: run,
}

// guardTypes are non-copyable regardless of doc comments.
var guardTypes = []struct{ pkg, name string }{
	{"ebr", "Guard"},
}

// stdNoCopy lists standard-library types that poison containers. (Direct
// copies of these are vet's copylocks territory; they participate here so
// the containment closure matches vet's.)
var stdNoCopy = map[string]map[string]bool{
	"sync":        {"Mutex": true, "RWMutex": true, "WaitGroup": true, "Cond": true, "Pool": true, "Once": true, "Map": true},
	"sync/atomic": {"Bool": true, "Int32": true, "Int64": true, "Uint32": true, "Uint64": true, "Uintptr": true, "Pointer": true, "Value": true},
}

type rootsKey struct{}

// docRoots scans every source-loaded package once for type declarations
// whose doc comment carries the "must not be copied" contract.
func docRoots(pass *analysis.Pass) map[*types.TypeName]bool {
	if r, ok := pass.Shared()[rootsKey{}].(map[*types.TypeName]bool); ok {
		return r
	}
	roots := make(map[*types.TypeName]bool)
	for _, pkg := range pass.Module.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil && len(gd.Specs) == 1 {
						doc = gd.Doc
					}
					if !analysis.DocContains(doc, "must not be copied") {
						continue
					}
					if obj, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
						roots[obj] = true
					}
				}
			}
		}
	}
	pass.Shared()[rootsKey{}] = roots
	return roots
}

// checker wraps the root set with a memoized containment closure.
type checker struct {
	roots map[*types.TypeName]bool
	memo  map[types.Type]bool
}

// noCopy reports whether t must not be copied by value.
func (c *checker) noCopy(t types.Type) bool {
	if v, ok := c.memo[t]; ok {
		return v
	}
	c.memo[t] = false // cut recursion on cyclic types
	v := c.compute(t)
	c.memo[t] = v
	return v
}

func (c *checker) compute(t types.Type) bool {
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if c.roots[obj] {
			return true
		}
		for _, g := range guardTypes {
			if obj.Name() == g.name && analysis.PkgIs(obj.Pkg(), g.pkg) {
				return true
			}
		}
		if obj.Pkg() != nil {
			if names, ok := stdNoCopy[obj.Pkg().Path()]; ok && names[obj.Name()] {
				return true
			}
		}
		return c.noCopy(named.Underlying())
	}
	switch u := t.(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if c.noCopy(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return c.noCopy(u.Elem())
	}
	return false
}

// describe names t for diagnostics.
func describe(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
		return obj.Name()
	}
	return t.String()
}

// fresh reports whether e produces a brand-new value (allowed to copy):
// function/method call results, composite literals, and conversions of
// fresh values.
func fresh(e ast.Expr) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return true
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		return false
	default:
		_ = v
		return false
	}
}

func run(pass *analysis.Pass) error {
	info := pass.Pkg.Info
	c := &checker{roots: docRoots(pass), memo: make(map[types.Type]bool)}

	typeOf := func(e ast.Expr) types.Type {
		if tv, ok := info.Types[e]; ok {
			return tv.Type
		}
		// Range-clause `:=` variables are definitions, not typed exprs.
		if id, ok := e.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				return obj.Type()
			}
		}
		return nil
	}

	// copyOf flags e when it copies a live non-copyable value.
	copyOf := func(e ast.Expr, context string) {
		if e == nil || fresh(e) {
			return
		}
		t := typeOf(e)
		if t == nil || !c.noCopy(t) {
			return
		}
		pass.Reportf(e.Pos(), "%s copies %s by value: it must not be copied (copy the pointer instead)", context, describe(t))
	}

	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.FuncDecl:
				if node.Recv != nil && len(node.Recv.List) == 1 {
					recv := node.Recv.List[0].Type
					if t := typeOf(recv); t != nil {
						if _, isPtr := t.(*types.Pointer); !isPtr && c.noCopy(t) {
							pass.Reportf(recv.Pos(), "method %s passes %s by value: use a pointer receiver", node.Name.Name, describe(t))
						}
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range node.Rhs {
					if len(node.Lhs) != len(node.Rhs) {
						break
					}
					if isBlankExpr(node.Lhs[i]) {
						continue
					}
					copyOf(rhs, "assignment")
				}
			case *ast.ValueSpec:
				for _, v := range node.Values {
					copyOf(v, "variable initialization")
				}
			case *ast.CallExpr:
				if skipArgCheck(info, node) {
					return true
				}
				for _, arg := range node.Args {
					copyOf(arg, "call argument")
				}
			case *ast.RangeStmt:
				if node.Value != nil && !isBlankExpr(node.Value) {
					if t := typeOf(node.Value); t != nil && c.noCopy(t) {
						pass.Reportf(node.Value.Pos(), "range clause copies %s by value: iterate by index or over pointers", describe(t))
					}
				}
			case *ast.CompositeLit:
				for _, elt := range node.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						elt = kv.Value
					}
					copyOf(elt, "composite literal")
				}
			}
			return true
		})
	}
	return nil
}

// skipArgCheck exempts calls whose by-value semantics are not a copy of
// user data: built-ins that don't copy (len, cap, new) and unsafe ops.
func skipArgCheck(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	switch info.Uses[id] {
	case types.Universe.Lookup("len"), types.Universe.Lookup("cap"),
		types.Universe.Lookup("new"), types.Universe.Lookup("make"):
		return true
	}
	return false
}

func isBlankExpr(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}
