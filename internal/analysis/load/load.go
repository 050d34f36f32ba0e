// Package load turns Go package patterns into a type-checked
// analysis.Module using only the standard library and the go tool.
//
// Strategy: `go list -deps -export -json` yields, in dependency order, every
// package the patterns need — with compiled export data for the standard
// library. Module packages are parsed and type-checked from source (their
// syntax is what the analyzers inspect); standard-library imports are
// satisfied from export data via go/importer's gc lookup mode, so the loader
// works fully offline with no golang.org/x/tools dependency.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"rcuarray/internal/analysis"
)

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath  string
	Dir         string
	Name        string
	GoFiles     []string
	TestGoFiles []string
	Imports     []string
	TestImports []string
	Standard    bool
	Export      string
}

// goList runs `go list` in dir with the given arguments and decodes the
// JSON package stream.
func goList(dir string, args ...string) ([]*listPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// StdImporter resolves non-module imports from compiled export data, finding
// the export files with `go list -export`. It caches both the export file
// paths and the imported packages (via the underlying gc importer).
type StdImporter struct {
	dir     string
	exports map[string]string
	gc      types.ImporterFrom
}

// NewStdImporter returns an export-data importer rooted at dir (any
// directory inside a module; the go tool is invoked there).
func NewStdImporter(fset *token.FileSet, dir string) *StdImporter {
	si := &StdImporter{dir: dir, exports: make(map[string]string)}
	si.gc = importer.ForCompiler(fset, "gc", si.lookup).(types.ImporterFrom)
	return si
}

// Prime records already-known export file paths (from a -deps listing) so
// imports resolve without extra go list invocations.
func (si *StdImporter) Prime(path, exportFile string) {
	if exportFile != "" {
		si.exports[path] = exportFile
	}
}

// PrimeDeps batch-resolves export data for the given import paths and all
// their dependencies in one go list invocation.
func (si *StdImporter) PrimeDeps(paths []string) error {
	missing := paths[:0]
	for _, p := range paths {
		if _, ok := si.exports[p]; !ok && p != "unsafe" && p != "C" {
			missing = append(missing, p)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	pkgs, err := goList(si.dir, append([]string{"-deps", "-export", "-json=ImportPath,Export"}, missing...)...)
	if err != nil {
		return err
	}
	for _, p := range pkgs {
		si.Prime(p.ImportPath, p.Export)
	}
	return nil
}

func (si *StdImporter) lookup(path string) (io.ReadCloser, error) {
	file, ok := si.exports[path]
	if !ok {
		pkgs, err := goList(si.dir, "-export", "-json=ImportPath,Export", path)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			si.Prime(p.ImportPath, p.Export)
		}
		file = si.exports[path]
		if file == "" {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
	}
	return os.Open(file)
}

// Import implements types.Importer.
func (si *StdImporter) Import(path string) (*types.Package, error) {
	return si.ImportFrom(path, si.dir, 0)
}

// ImportFrom implements types.ImporterFrom.
func (si *StdImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return si.gc.ImportFrom(path, dir, mode)
}

// chainImporter consults the source-loaded module packages first, then
// falls back to export data.
type chainImporter struct {
	loaded map[string]*types.Package
	std    *StdImporter
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *chainImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := c.loaded[path]; ok {
		return pkg, nil
	}
	return c.std.ImportFrom(path, dir, mode)
}

// NewInfo returns a fresh, fully populated types.Info.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// ParseFiles parses the named files (absolute or dir-relative) with
// comments retained.
func ParseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Module loads the packages matched by patterns (plus their in-module
// dependencies) from source, type-checking against export data for the
// standard library. Test files (in-package _test.go) are parsed and
// type-checked for target packages so test-aware analyzers can see them.
func Module(dir string, patterns ...string) (*analysis.Module, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, err := goList(dir, append([]string{"-json=ImportPath"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	targetSet := make(map[string]bool, len(targets))
	for _, t := range targets {
		targetSet[t.ImportPath] = true
	}

	listed, err := goList(dir, append([]string{
		"-deps", "-export",
		"-json=ImportPath,Dir,Name,GoFiles,TestGoFiles,Imports,TestImports,Standard,Export",
	}, patterns...)...)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	std := NewStdImporter(fset, dir)
	mod := &analysis.Module{Fset: fset}
	loaded := make(map[string]*types.Package)
	imp := &chainImporter{loaded: loaded, std: std}

	// Export data for test-only dependencies (testing, etc.) is not in the
	// -deps listing; resolve it in one batch up front.
	var testDeps []string
	for _, p := range listed {
		if p.Standard {
			std.Prime(p.ImportPath, p.Export)
			continue
		}
		if targetSet[p.ImportPath] {
			testDeps = append(testDeps, p.TestImports...)
		}
	}
	if err := std.PrimeDeps(testDeps); err != nil {
		return nil, err
	}

	for _, p := range listed {
		if p.Standard {
			continue
		}
		names := p.GoFiles
		if targetSet[p.ImportPath] {
			names = append(append([]string{}, p.GoFiles...), p.TestGoFiles...)
		}
		files, err := ParseFiles(fset, p.Dir, names)
		if err != nil {
			return nil, err
		}
		test := make(map[*ast.File]bool)
		for i, f := range files {
			if i >= len(p.GoFiles) || (targetSet[p.ImportPath] && strings.HasSuffix(names[i], "_test.go")) {
				test[f] = true
			}
		}
		info := NewInfo()
		cfg := &types.Config{Importer: imp, Sizes: types.SizesFor("gc", "amd64")}
		tpkg, err := cfg.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("load: type-checking %s: %v", p.ImportPath, err)
		}
		loaded[p.ImportPath] = tpkg
		pkg := &analysis.Package{
			Path:   p.ImportPath,
			Dir:    p.Dir,
			Files:  files,
			Test:   test,
			Types:  tpkg,
			Info:   info,
			Target: targetSet[p.ImportPath],
		}
		mod.Packages = append(mod.Packages, pkg)
	}
	return mod, nil
}
