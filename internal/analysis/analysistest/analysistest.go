// Package analysistest is the golden-comment test harness for rcuvet
// analyzers, mirroring golang.org/x/tools/go/analysis/analysistest on the
// in-repo framework.
//
// Test packages live in a GOPATH-style tree, testdata/src/<importpath>/,
// and annotate the lines an analyzer must flag with
//
//	x := bad() // want "regexp matching the diagnostic"
//
// Multiple expectations on one line are multiple quoted regexps. A test
// fails if a diagnostic has no matching want, or a want has no matching
// diagnostic. Imports inside test packages resolve first against
// testdata/src (stub packages named after the real ones: "ebr", "qsbr",
// ...), then against the standard library via export data, so the fixtures
// exercise the same type-driven matching the real module does.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"rcuarray/internal/analysis"
	"rcuarray/internal/analysis/load"
)

// TestData returns the canonical testdata/src root shared by the analyzer
// packages: internal/analysis/testdata/src relative to the calling test's
// working directory (which `go test` sets to the analyzer package dir).
func TestData(t *testing.T) string {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(cwd, "..", "testdata", "src")
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		t.Fatalf("analysistest: no testdata tree at %s", dir)
	}
	return dir
}

// Run loads each named test package from srcRoot, applies the analyzer,
// and compares diagnostics against the // want comments in that package's
// files (test-named files included).
func Run(t *testing.T, srcRoot string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		t.Run(pkg, func(t *testing.T) {
			runOne(t, srcRoot, a, pkg)
		})
	}
}

func runOne(t *testing.T, srcRoot string, a *analysis.Analyzer, target string) {
	t.Helper()
	mod, err := loadTree(srcRoot, target)
	if err != nil {
		t.Fatalf("loading %s: %v", target, err)
	}
	runner := &analysis.Runner{Module: mod, Analyzers: []*analysis.Analyzer{a}}
	diags, err := runner.Run()
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, target, err)
	}

	wants := collectWants(t, mod)
	matched := make([]bool, len(diags))
	for key, ws := range wants {
		for _, w := range ws {
			found := false
			for i, d := range diags {
				if matched[i] {
					continue
				}
				pos := mod.Fset.Position(d.Pos)
				if pos.Filename == key.file && pos.Line == key.line && w.re.MatchString(d.Message) {
					matched[i] = true
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s:%d: no diagnostic matching %q", filepath.Base(key.file), key.line, w.re)
			}
		}
	}
	for i, d := range diags {
		if !matched[i] {
			pos := mod.Fset.Position(d.Pos)
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
}

type wantKey struct {
	file string
	line int
}

type want struct {
	re *regexp.Regexp
}

var (
	wantRE = regexp.MustCompile(`//\s*want\s+(.*)`)
	// want-next expects the diagnostic on the line BELOW the comment. It
	// exists for diagnostics that land on comment lines themselves (the
	// ignorecheck analyzer flags //rcuvet:ignore comments, which cannot
	// share their line with a second comment).
	wantNextRE = regexp.MustCompile(`//\s*want-next\s+(.*)`)
)

// collectWants parses the // want comments of every target-package file.
func collectWants(t *testing.T, mod *analysis.Module) map[wantKey][]want {
	t.Helper()
	out := make(map[wantKey][]want)
	for _, pkg := range mod.Packages {
		if !pkg.Target {
			continue
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					line := 0
					var spec string
					if m := wantNextRE.FindStringSubmatch(c.Text); m != nil {
						line, spec = 1, m[1]
					} else if m := wantRE.FindStringSubmatch(c.Text); m != nil {
						line, spec = 0, m[1]
					} else {
						continue
					}
					pos := mod.Fset.Position(c.Pos())
					res, err := parseWantPatterns(spec)
					if err != nil {
						t.Fatalf("%s:%d: %v", pos.Filename, pos.Line, err)
					}
					key := wantKey{file: pos.Filename, line: pos.Line + line}
					for _, re := range res {
						out[key] = append(out[key], want{re: re})
					}
				}
			}
		}
	}
	return out
}

// parseWantPatterns splits `"re1" "re2"` into compiled regexps.
func parseWantPatterns(s string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' {
			return nil, fmt.Errorf("want patterns must be double-quoted regexps, got %q", s)
		}
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated want pattern in %q", s)
		}
		re, err := regexp.Compile(s[1:end])
		if err != nil {
			return nil, fmt.Errorf("bad want pattern: %v", err)
		}
		out = append(out, re)
		s = strings.TrimSpace(s[end+1:])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty want comment")
	}
	return out, nil
}

// loadTree loads the target (and, recursively, any testdata-local imports)
// into one Module. Only the target is marked Target.
func loadTree(srcRoot, target string) (*analysis.Module, error) {
	fset := token.NewFileSet()
	std := load.NewStdImporter(fset, srcRoot)
	mod := &analysis.Module{Fset: fset}
	loaded := make(map[string]*types.Package)

	var loadPkg func(path string, isTarget bool) (*types.Package, error)

	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := loaded[path]; ok {
			return pkg, nil
		}
		if dir := filepath.Join(srcRoot, filepath.FromSlash(path)); isDir(dir) {
			return loadPkg(path, false)
		}
		return std.Import(path)
	})

	loadPkg = func(path string, isTarget bool) (*types.Package, error) {
		dir := filepath.Join(srcRoot, filepath.FromSlash(path))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var names []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		if len(names) == 0 {
			return nil, fmt.Errorf("no Go files in %s", dir)
		}
		files, err := load.ParseFiles(fset, dir, names)
		if err != nil {
			return nil, err
		}
		test := make(map[*ast.File]bool)
		for i, f := range files {
			if strings.HasSuffix(names[i], "_test.go") {
				test[f] = true
			}
		}
		info := load.NewInfo()
		cfg := &types.Config{Importer: imp, Sizes: types.SizesFor("gc", "amd64")}
		tpkg, err := cfg.Check(path, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", path, err)
		}
		loaded[path] = tpkg
		pkg := &analysis.Package{
			Path: path, Dir: dir, Files: files, Test: test,
			Types: tpkg, Info: info, Target: isTarget,
		}
		mod.Packages = append(mod.Packages, pkg)
		return tpkg, nil
	}

	if _, err := loadPkg(target, true); err != nil {
		return nil, err
	}
	return mod, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func isDir(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}
