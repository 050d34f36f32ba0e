// Package analysis is a small, dependency-free analogue of
// golang.org/x/tools/go/analysis, built on the standard library's go/ast and
// go/types. The container this repository builds in has no module proxy, so
// the real x/tools framework is unavailable; this package reimplements the
// slice of it that rcuvet needs:
//
//   - Analyzer: a named check with a per-package Run.
//   - Pass: one (analyzer, package) unit of work with the type-checked
//     syntax and a Reportf sink.
//   - Runner: applies a set of analyzers to a loaded Module and filters the
//     diagnostics through //rcuvet:ignore directives.
//
// The passes — guardpair, seedpure and ignorecheck, registered in package
// suite — are syntactic. Every pass checks one package at a time, so there
// is no counterpart of x/tools' Facts machinery, of a module-wide hook, or
// of a control-flow graph.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("rcuarray/internal/ebr", or a bare name
	// such as "ebr" for analysistest stub packages).
	Path string
	// Dir is the directory the files were loaded from.
	Dir string
	// Files is the package syntax, test files included when the loader
	// was asked for them.
	Files []*ast.File
	// Test marks which of Files are _test.go files. Analyzers that set
	// IncludeTests=false never see these.
	Test map[*ast.File]bool
	// Types and Info are the type-checked package and its usage maps.
	Types *types.Package
	// Info holds Types/Defs/Uses/Selections for Files.
	Info *types.Info
	// Target reports whether analyzers run on this package (true) or it
	// was loaded only as a dependency of one that does (false).
	Target bool
}

// Module is the whole loaded universe: every source-loaded package over one
// shared FileSet, in dependency order (imports precede importers).
type Module struct {
	Fset     *token.FileSet
	Packages []*Package
}

// File returns the *ast.File of pkg containing pos, or nil.
func (p *Package) File(fset *token.FileSet, pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and tests.
	Name string
	// Doc is the one-paragraph description printed by rcuvet -help.
	Doc string
	// IncludeTests lets the analyzer see _test.go files. Most analyzers
	// skip them: the misuse-driven test suites (double-Exit tests, chaos
	// timing asserts) violate the invariants on purpose.
	IncludeTests bool
	// Run analyzes one target package.
	Run func(pass *Pass) error
}

// Pass is one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Module   *Module
	Pkg      *Package

	sink func(Diagnostic)
}

// Fset returns the module's shared FileSet.
func (p *Pass) Fset() *token.FileSet { return p.Module.Fset }

// Files returns the files the analyzer should inspect: the package's
// syntax, minus test files unless the analyzer opted in.
func (p *Pass) Files() []*ast.File {
	if p.Analyzer.IncludeTests {
		return p.Pkg.Files
	}
	out := make([]*ast.File, 0, len(p.Pkg.Files))
	for _, f := range p.Pkg.Files {
		if !p.Pkg.Test[f] {
			out = append(out, f)
		}
	}
	return out
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.sink(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Runner applies analyzers to a module.
type Runner struct {
	Module    *Module
	Analyzers []*Analyzer

	// Times, after Run, holds each analyzer's wall time over every target
	// package, keyed by analyzer name. ci.sh prints it so a pass that
	// regresses tier-1's latency is visible.
	Times map[string]time.Duration
}

// Run executes every analyzer over every target package, applies the
// //rcuvet:ignore directives, and returns the surviving diagnostics sorted
// by position. Analyzer errors (not diagnostics) abort the run.
func (r *Runner) Run() ([]Diagnostic, error) {
	var diags []Diagnostic
	sink := func(d Diagnostic) { diags = append(diags, d) }
	r.Times = make(map[string]time.Duration, len(r.Analyzers))
	for _, a := range r.Analyzers {
		began := time.Now()
		for _, pkg := range r.Module.Packages {
			if !pkg.Target {
				continue
			}
			pass := &Pass{Analyzer: a, Module: r.Module, Pkg: pkg, sink: sink}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
		r.Times[a.Name] = time.Since(began)
	}
	diags = filterIgnored(r.Module, diags)
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := r.Module.Fset.Position(diags[i].Pos), r.Module.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
