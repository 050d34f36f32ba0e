package analysis

import (
	"go/ast"
	"go/types"
)

// PkgIs reports whether pkg is the repo package with the given short name:
// either the real module path ("rcuarray/internal/<name>") or the bare name
// itself, which is how analysistest stub packages are imported.
func PkgIs(pkg *types.Package, name string) bool {
	if pkg == nil {
		return false
	}
	return pkg.Path() == "rcuarray/internal/"+name || pkg.Path() == name
}

// PathIs is PkgIs on an import path string.
func PathIs(path, name string) bool {
	return path == "rcuarray/internal/"+name || path == name
}

// NamedType unwraps pointers and reports the (package short name, type name)
// identity of t, when t is a named type from a repo (or stub) package.
func NamedType(t types.Type, pkgName, typeName string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && PkgIs(obj.Pkg(), pkgName)
}

// ReceiverOf returns the method's receiver type for a selector call
// expression like g.Exit(), or nil if call is not a method call.
func ReceiverOf(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil
	}
	return selection.Recv()
}

// IsMethodCall reports whether call is a call of method name on a receiver
// of the named repo type (pointer or value receiver).
func IsMethodCall(info *types.Info, call *ast.CallExpr, pkgName, typeName, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	recv := ReceiverOf(info, call)
	return recv != nil && NamedType(recv, pkgName, typeName)
}

// FuncScopes visits every function body in f — declarations and function
// literals — calling visit once per body. Nested literals are visited as
// their own scope and are NOT re-walked as part of the enclosing body's
// scope walk when the visitor uses ScopeInspect.
func FuncScopes(f *ast.File, visit func(node ast.Node, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				visit(fn, fn.Body)
			}
		case *ast.FuncLit:
			visit(fn, fn.Body)
		}
		return true
	})
}

// ScopeInspect walks body like ast.Inspect but does not descend into nested
// function literals, so a guard acquired in one scope is matched only
// against releases in that same scope. The literal node itself is still
// visited (callers can special-case it).
func ScopeInspect(body *ast.BlockStmt, visit func(n ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if !visit(n) {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		return true
	})
}
