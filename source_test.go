package rcuarray_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The tests in this file read the module's source with go/parser alone: no
// type checker and no loader. Each holds one rule the compiler and go vet
// cannot see; DESIGN.md "Source checks" says why each rule matters.

// TestNoAtomicFunctionForms bans sync/atomic's function forms (AddInt64,
// LoadUint64, CompareAndSwapPointer, ...) outside tests. With only typed
// atomics (atomic.Uint64, xsync.PaddedUint64, ...) a plain access to an
// atomic location does not compile, a copy is a go vet copylocks error, and
// 64-bit values are aligned on 32-bit platforms.
func TestNoAtomicFunctionForms(t *testing.T) {
	forms := regexp.MustCompile(`^(Add|Load|Store|Swap|CompareAndSwap|And|Or)(Int32|Int64|Uint32|Uint64|Uintptr|Pointer)$`)
	walkSources(t, false, func(fset *token.FileSet, _ string, f *ast.File) {
		name := importName(f, "sync/atomic")
		if name == "" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && forms.MatchString(sel.Sel.Name) {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
					t.Errorf("%s: atomic.%s; use a typed atomic (atomic.Int64, atomic.Pointer[T], ...)", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	})
}

// TestNoClockInRecorders bans a clock read (time.Now, time.Since,
// Tracer.Now, Stamp.Elapsed) inside the arguments of .Observe( or
// .Complete( outside internal/obs. A latency is taken only as an obs.Stamp
// from obs.Start — zero, with no clock read, while observability is off —
// and recorded through Histogram.Since or Ring.Complete, so a disabled run
// never pays for a timestamp. Observe keeps plain counts (frames and bytes
// per flush).
func TestNoClockInRecorders(t *testing.T) {
	obsDir := filepath.Join("internal", "obs") + string(filepath.Separator)
	walkSources(t, false, func(fset *token.FileSet, rel string, f *ast.File) {
		if strings.HasPrefix(rel, obsDir) {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rec := selectorCall(n)
			if rec != "Observe" && rec != "Complete" {
				return true
			}
			for _, arg := range n.(*ast.CallExpr).Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					if clock := selectorCall(m); clock == "Now" || clock == "Since" || clock == "Elapsed" {
						t.Errorf("%s: %s read inside %s's arguments; time it with obs.Start and Histogram.Since or Ring.Complete", fset.Position(m.Pos()), clock, rec)
					}
					return true
				})
			}
			return true
		})
	})
}

// TestRetireOnlyInGracedHelpers closes the one bypass ebr.Cell leaves open:
// a value read with Load before a Swap and retired with no grace. In core,
// dist and dtable every .Retire() must sit in a retire helper, and a helper
// may Load only inside the free closure it hands Unpublished.After's or
// Defer's value to, so what it retires came out of the grace.
func TestRetireOnlyInGracedHelpers(t *testing.T) {
	helpers := map[string][]string{
		"internal/core": {"retire"},
		"internal/dist": {"replaceTableLocked"},
		"dtable":        {"publish"},
	}
	fset := token.NewFileSet()
	for dir, allowed := range helpers {
		pkgs, err := parser.ParseDir(fset, filepath.FromSlash(dir), func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok {
						continue
					}
					helper := slices.Contains(allowed, fn.Name.Name)
					ast.Inspect(fn, func(n ast.Node) bool {
						if _, ok := n.(*ast.FuncLit); ok && helper {
							return false // the free closure
						}
						call, ok := n.(*ast.CallExpr)
						if !ok || len(call.Args) != 0 {
							return true
						}
						sel, ok := call.Fun.(*ast.SelectorExpr)
						switch {
						case !ok:
						case sel.Sel.Name == "Retire" && !helper:
							t.Errorf("%s: Retire in %s; retire only in %v, from Unpublished.After or Defer", fset.Position(call.Pos()), fn.Name.Name, allowed)
						case sel.Sel.Name == "Load" && helper:
							t.Errorf("%s: Load in retire helper %s; take the value from Unpublished.After or Defer", fset.Position(call.Pos()), fn.Name.Name)
						}
						return true
					})
				}
			}
		}
	}
}

// TestGuardsExitByDefer holds the read-side guard discipline outside
// internal/ebr, which implements the protocol: each .Enter() or
// .EnterSlot(…) result is bound by `name :=` as the statement's only
// right-hand side, the very next statement is `defer name.Exit()`, and name
// appears nowhere else in its function. A guard that never exits, or exits
// without defer and meets a panic, pins its epoch parity, and every later
// Synchronize hangs. No qsbr .Register() result is dropped either: a
// participant that never checkpoints stalls reclamation for its domain.
// The calls are matched by method name, which is sound only while no type
// outside ebr and qsbr declares a method of one of these names.
func TestGuardsExitByDefer(t *testing.T) {
	protocol := []string{"Enter", "EnterSlot", "Exit", "Register"}
	ebrDir := filepath.Join("internal", "ebr") + string(filepath.Separator)
	qsbrDir := filepath.Join("internal", "qsbr") + string(filepath.Separator)
	walkSources(t, false, func(fset *token.FileSet, rel string, f *ast.File) {
		inEBR := strings.HasPrefix(rel, ebrDir)
		if !inEBR && !strings.HasPrefix(rel, qsbrDir) {
			ast.Inspect(f, func(n ast.Node) bool {
				var methods []*ast.Ident
				switch d := n.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						methods = []*ast.Ident{d.Name}
					}
				case *ast.InterfaceType:
					for _, m := range d.Methods.List {
						methods = append(methods, m.Names...)
					}
				}
				for _, m := range methods {
					if slices.Contains(protocol, m.Name) {
						t.Errorf("%s: method %s outside ebr and qsbr; the guard checks match these names, so pick another", fset.Position(m.Pos()), m.Name)
					}
				}
				return true
			})
		}
		if inEBR {
			return
		}

		paired := make(map[ast.Expr]bool) // the x.Enter of each sanctioned call
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body == nil {
				return true
			}
			ast.Inspect(body, func(m ast.Node) bool {
				if _, ok := m.(*ast.FuncLit); ok {
					return false // its own function
				}
				list := stmtList(m)
				for i := 0; i+1 < len(list); i++ {
					name, call := guardBinding(list[i])
					if call == nil || !isDeferExit(list[i+1], name) {
						continue
					}
					paired[call.Fun] = true
					if uses := identCount(body, name); uses != 2 {
						t.Errorf("%s: guard %s appears %d times in its function, want 2 (`%s :=` and `defer %s.Exit()`)", fset.Position(call.Pos()), name, uses, name, name)
					}
				}
				return true
			})
			return true
		})

		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.SelectorExpr:
				if name := s.Sel.Name; (name == "Enter" || name == "EnterSlot") && !paired[s] {
					t.Errorf("%s: %s result not bound by `g :=` and released by the next statement, `defer g.Exit()`", fset.Position(s.Pos()), name)
				}
			case *ast.ExprStmt:
				if selectorCall(s.X) == "Register" {
					t.Errorf("%s: Register result discarded; a participant that never checkpoints stalls reclamation", fset.Position(s.Pos()))
				}
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i, rhs := range s.Rhs {
						if selectorCall(rhs) == "Register" && isBlank(s.Lhs[i]) {
							t.Errorf("%s: Register result assigned to _; a participant that never checkpoints stalls reclamation", fset.Position(rhs.Pos()))
						}
					}
				}
			}
			return true
		})
	})
}

// stmtList returns the statements n holds directly, if it is a block or a
// case clause.
func stmtList(n ast.Node) []ast.Stmt {
	switch s := n.(type) {
	case *ast.BlockStmt:
		return s.List
	case *ast.CaseClause:
		return s.Body
	case *ast.CommClause:
		return s.Body
	}
	return nil
}

// guardBinding returns name and the call when s is `name := x.Enter()` or
// `name := x.EnterSlot(…)`.
func guardBinding(s ast.Stmt) (string, *ast.CallExpr) {
	as, ok := s.(*ast.AssignStmt)
	if !ok || as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return "", nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	call, _ := as.Rhs[0].(*ast.CallExpr)
	if !ok || id.Name == "_" || call == nil {
		return "", nil
	}
	if name := selectorCall(call); name != "Enter" && name != "EnterSlot" {
		return "", nil
	}
	return id.Name, call
}

// isDeferExit reports whether s is `defer name.Exit()`.
func isDeferExit(s ast.Stmt, name string) bool {
	d, ok := s.(*ast.DeferStmt)
	if !ok || len(d.Call.Args) != 0 || selectorCall(d.Call) != "Exit" {
		return false
	}
	x, ok := d.Call.Fun.(*ast.SelectorExpr).X.(*ast.Ident)
	return ok && x.Name == name
}

// identCount counts the identifiers spelled name in n.
func identCount(n ast.Node, name string) int {
	count := 0
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && id.Name == name {
			count++
		}
		return true
	})
	return count
}

// TestDeterministicDomains holds the seed-replay rule of the test fabrics:
// in internal/check and internal/workload (test files included), in comm's
// fault-decision files fault.go and fabric.go, and in every
// lincheck_test.go, each decision is a pure function of the seed, so that
// `-seed N` replays byte-for-byte. Those files import neither math/rand nor
// the wall-clock packages internal/obs and internal/durable, call no
// time.Now, time.Since or time.Until, and do not range over a map in an
// order-sensitive way.
//
// The map check is syntactic: it flags a range over a map literal, or over a
// name (or field) the same file binds with make(map…), a map literal or a
// declared map type. Only the two order-insensitive shapes pass: the
// collect-keys body `s = append(s, k)`, and ignored iteration variables.
// The check stays because no other test catches the slip: a checker that
// visits its partitions in map order still reaches the same verdict, and
// only the order of its failure listing changes from run to run.
func TestDeterministicDomains(t *testing.T) {
	domainDirs := []string{"internal/check", "internal/workload"}
	commFiles := []string{"internal/comm/fault.go", "internal/comm/fabric.go"}
	banned := map[string]string{
		"math/rand":                 "unseeded randomness; use the domain's SplitMix64 streams",
		"math/rand/v2":              "unseeded randomness; use the domain's SplitMix64 streams",
		"rcuarray/internal/obs":     "metrics and trace timestamps read the wall clock; fold counters in from a file outside the domain",
		"rcuarray/internal/durable": "durable files carry wall-clock stamps and fsync real disks; persist from a file outside the domain",
	}
	// A renamed domain or wall-clock package would leave its rule guarding
	// nothing.
	for _, p := range slices.Concat(domainDirs, commFiles, []string{"internal/obs", "internal/durable"}) {
		if _, err := os.Stat(filepath.FromSlash(p)); err != nil {
			t.Errorf("%s is gone (%v); update TestDeterministicDomains", p, err)
		}
	}
	inDomain := func(rel string) bool {
		rel = filepath.ToSlash(rel)
		return slices.Contains(domainDirs, filepath.ToSlash(filepath.Dir(rel))) ||
			slices.Contains(commFiles, rel) || filepath.Base(rel) == "lincheck_test.go"
	}
	walkSources(t, true, func(fset *token.FileSet, rel string, f *ast.File) {
		if !inDomain(rel) {
			return
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if reason, bad := banned[path]; bad {
				t.Errorf("%s: import of %s in a deterministic domain: %s", fset.Position(imp.Pos()), path, reason)
			}
		}
		timeName := importName(f, "time")
		maps := mapNames(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := s.X.(*ast.Ident); ok && x.Name == timeName && (s.Sel.Name == "Now" || s.Sel.Name == "Since" || s.Sel.Name == "Until") {
					t.Errorf("%s: time.%s in a deterministic domain: wall-clock values must not feed seed-replayable decisions", fset.Position(s.Pos()), s.Sel.Name)
				}
			case *ast.RangeStmt:
				if rangesMap(s.X, maps) && !orderInsensitive(s) {
					t.Errorf("%s: map range in a deterministic domain: its order changes per run; collect the keys and sort them", fset.Position(s.Pos()))
				}
			}
			return true
		})
	})
}

// mapNames returns the names f binds to a map: by make(map…) or a map
// literal on the right of an assignment or var, or by a declared map type
// on a var, parameter or struct field.
func mapNames(f *ast.File) map[string]bool {
	names := make(map[string]bool)
	isMap := func(e ast.Expr) bool {
		switch v := ast.Unparen(e).(type) {
		case *ast.MapType:
			return true
		case *ast.CompositeLit:
			_, ok := v.Type.(*ast.MapType)
			return ok
		case *ast.CallExpr:
			if fn, ok := v.Fun.(*ast.Ident); ok && fn.Name == "make" && len(v.Args) > 0 {
				_, ok := v.Args[0].(*ast.MapType)
				return ok
			}
		}
		return false
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i, rhs := range s.Rhs {
					if id, ok := s.Lhs[i].(*ast.Ident); ok && isMap(rhs) {
						names[id.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, id := range s.Names {
				if (s.Type != nil && isMap(s.Type)) || (i < len(s.Values) && isMap(s.Values[i])) {
					names[id.Name] = true
				}
			}
		case *ast.Field:
			if isMap(s.Type) {
				for _, id := range s.Names {
					names[id.Name] = true
				}
			}
		}
		return true
	})
	return names
}

// rangesMap reports whether x is a map literal or a name (or field) that
// maps holds.
func rangesMap(x ast.Expr, maps map[string]bool) bool {
	switch v := ast.Unparen(x).(type) {
	case *ast.CompositeLit:
		_, ok := v.Type.(*ast.MapType)
		return ok
	case *ast.Ident:
		return maps[v.Name]
	case *ast.SelectorExpr:
		return maps[v.Sel.Name]
	}
	return false
}

// orderInsensitive recognizes the two map ranges whose order cannot leak:
//
//	for k := range m { s = append(s, k) }   // collect, then sort
//	for range m { n++ }                     // iteration variables unused
func orderInsensitive(r *ast.RangeStmt) bool {
	keyUsed := r.Key != nil && !isBlank(r.Key)
	if r.Value != nil && !isBlank(r.Value) {
		return false
	}
	if !keyUsed {
		return true
	}
	if len(r.Body.List) != 1 {
		return false
	}
	as, ok := r.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	dst, ok2 := ast.Unparen(call.Args[0]).(*ast.Ident)
	lhs, ok3 := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	arg, ok4 := ast.Unparen(call.Args[1]).(*ast.Ident)
	key, ok5 := ast.Unparen(r.Key).(*ast.Ident)
	return ok && ok2 && ok3 && ok4 && ok5 && fn.Name == "append" &&
		dst.Name == lhs.Name && arg.Name == key.Name
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// importName returns the name f uses for the package at path, or "" when f
// does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return filepath.Base(path)
	}
	return ""
}

// selectorCall returns Name when n is a call x.Name(...), else "".
func selectorCall(n ast.Node) string {
	if call, ok := n.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			return sel.Sel.Name
		}
	}
	return ""
}

// walkSources parses every .go file of the module (test files only when
// tests is set), skipping nested modules, testdata and dot-directories, and
// hands each to visit with its path relative to the module root, which is
// the working directory of this package's tests.
func walkSources(t *testing.T, tests bool, visit func(fset *token.FileSet, rel string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == "." {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // nested modules, fixtures, .git
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || (!tests && strings.HasSuffix(path, "_test.go")) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(fset, path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
