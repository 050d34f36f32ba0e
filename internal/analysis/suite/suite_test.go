package suite_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"rcuarray/internal/analysis/suite"
)

func TestAllWellFormed(t *testing.T) {
	want := []string{"guardpair", "seedpure", "ignorecheck"}
	var got []string
	for _, a := range suite.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run", a)
		}
		got = append(got, a.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("suite.All() registers %v, want exactly %v", got, want)
	}
}

// TestSuiteDrift pins the three places an analyzer is named — the suite
// registry, the golden-fixture tree, and DESIGN.md's analyzer bullets — to
// one another, so adding (or renaming) a pass in one place without the
// others fails tier-1 instead of silently shipping an undocumented or
// untested analyzer.
func TestSuiteDrift(t *testing.T) {
	root := moduleRoot(t)
	names := make(map[string]bool)
	for _, a := range suite.All() {
		names[a.Name] = true
	}

	// Every registered analyzer has at least one <name>_* fixture package,
	// and every <name>_* fixture package belongs to a registered analyzer
	// (dirs without an underscore are shared stubs: obs, qsbr, durable, ...).
	fixtures := make(map[string][]string)
	src := filepath.Join(root, "internal", "analysis", "testdata", "src")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		prefix, _, found := strings.Cut(e.Name(), "_")
		if !found {
			continue
		}
		fixtures[prefix] = append(fixtures[prefix], e.Name())
	}
	for name := range names {
		if len(fixtures[name]) == 0 {
			t.Errorf("analyzer %q registered in suite.All() but has no testdata/src/%s_* fixture package", name, name)
		}
	}
	for prefix, dirs := range fixtures {
		if !names[prefix] {
			t.Errorf("fixture package(s) %v have analyzer prefix %q, which suite.All() does not register", dirs, prefix)
		}
	}

	// DESIGN.md's "Static analysis" section documents exactly the
	// registered set, one `- **name** ...` bullet each.
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	bulletRE := regexp.MustCompile(`(?m)^- \*\*([a-z]+)\*\*`)
	documented := make(map[string]bool)
	for _, m := range bulletRE.FindAllStringSubmatch(string(design), -1) {
		documented[m[1]] = true
	}
	for name := range names {
		if !documented[name] {
			t.Errorf("analyzer %q registered in suite.All() but has no `- **%s**` bullet in DESIGN.md's Static analysis section", name, name)
		}
	}
	for name := range documented {
		if !names[name] {
			t.Errorf("DESIGN.md documents analyzer %q, which suite.All() does not register", name)
		}
	}

	if t.Failed() {
		var registered []string
		for name := range names {
			registered = append(registered, name)
		}
		sort.Strings(registered)
		t.Logf("registered analyzers: %s", strings.Join(registered, ", "))
	}
}

// TestNoAtomicFunctionForms bans sync/atomic's function forms (AddInt64,
// LoadUint64, CompareAndSwapPointer, ...) outside tests. With only typed
// atomics (atomic.Uint64, xsync.PaddedUint64, ...) a plain access to an
// atomic location does not compile, a copy is a go vet copylocks error, and
// 64-bit values are aligned on 32-bit platforms.
func TestNoAtomicFunctionForms(t *testing.T) {
	forms := regexp.MustCompile(`^(Add|Load|Store|Swap|CompareAndSwap|And|Or)(Int32|Int64|Uint32|Uint64|Uintptr|Pointer)$`)
	walkSources(t, func(fset *token.FileSet, _ string, f *ast.File) {
		for _, imp := range f.Imports {
			if imp.Path.Value != `"sync/atomic"` {
				continue
			}
			name := "atomic"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && forms.MatchString(sel.Sel.Name) {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
						t.Errorf("%s: atomic.%s; use a typed atomic (atomic.Int64, atomic.Pointer[T], ...)", fset.Position(sel.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
		}
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
	walkSources(t, func(fset *token.FileSet, rel string, f *ast.File) {
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

// selectorCall returns Name when n is a call x.Name(...), else "".
func selectorCall(n ast.Node) string {
	if call, ok := n.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			return sel.Sel.Name
		}
	}
	return ""
}

// walkSources parses every non-test .go file of the module, skipping nested
// modules, testdata and dot-directories, and hands each to visit with its
// path relative to the module root.
func walkSources(t *testing.T, visit func(fset *token.FileSet, rel string, f *ast.File)) {
	t.Helper()
	root := moduleRoot(t)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // nested modules, fixtures, .git
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		visit(fset, rel, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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
	root := moduleRoot(t)
	fset := token.NewFileSet()
	for dir, allowed := range helpers {
		pkgs, err := parser.ParseDir(fset, filepath.Join(root, dir), func(fi fs.FileInfo) bool {
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

// moduleRoot walks up from the test's working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test working directory")
		}
		dir = parent
	}
}
