// Command rcuvet machine-checks this repository's RCU/EBR concurrency
// invariants with three syntactic passes: guardpair (guard pairing),
// seedpure (seed-purity of the deterministic test fabrics) and ignorecheck
// (every //rcuvet:ignore states a reason). The other invariants are types or
// short tests: grace-period ordering before reclamation is ebr.Cell's type
// (an Unpublished value yields only after a grace); the obs gate lives in
// obs's types (self-gating rings, obs.Stamp) with TestNoClockInRecorders
// banning a clock read inside Observe/Complete; pooled-frame ownership is
// comm's generation-checked frameRef, which panics on misuse; copy
// discipline is go vet's copylocks check (ebr.Guard carries a noCopy
// sentinel); and atomic access is TestNoAtomicFunctionForms in
// internal/analysis/suite, which bans sync/atomic's function forms. See
// DESIGN.md's "Static analysis" section for the invariants each analyzer
// encodes.
//
// Usage:
//
//	go run ./cmd/rcuvet ./...          # whole module (what ci.sh tier-1 runs)
//	go run ./cmd/rcuvet ./internal/dist
//	go run ./cmd/rcuvet -only guardpair ./...
//	go run ./cmd/rcuvet -list          # describe the analyzers
//	go run ./cmd/rcuvet -json ./...    # machine-readable findings
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
//
// Findings are suppressed per line with `//rcuvet:ignore <reason>`; the
// reason is mandatory (enforced by the ignorecheck analyzer) and the
// directive also covers the line directly below it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"rcuarray/internal/analysis"
	"rcuarray/internal/analysis/load"
	"rcuarray/internal/analysis/suite"
)

// finding is the -json output shape, one object per diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	times := flag.Bool("time", false, "print per-analyzer wall time to stderr")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rcuvet [-list] [-only a,b] [-json] [-time] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := suite.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		keep := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var filtered = analyzers[:0]
		for _, a := range analyzers {
			if keep[a.Name] {
				filtered = append(filtered, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			fmt.Fprintf(os.Stderr, "rcuvet: unknown analyzer %q (try -list)\n", name)
			os.Exit(2)
		}
		analyzers = filtered
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcuvet: %v\n", err)
		os.Exit(2)
	}
	mod, err := load.Module(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcuvet: %v\n", err)
		os.Exit(2)
	}
	runner := &analysis.Runner{Module: mod, Analyzers: analyzers}
	diags, err := runner.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcuvet: %v\n", err)
		os.Exit(2)
	}
	if *times {
		names := make([]string, 0, len(runner.Times))
		for name := range runner.Times {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "rcuvet: %-12s %8.1fms\n", name, float64(runner.Times[name].Microseconds())/1000)
		}
	}
	if *asJSON {
		findings := make([]finding, 0, len(diags))
		for _, d := range diags {
			pos := mod.Fset.Position(d.Pos)
			findings = append(findings, finding{
				File: pos.Filename, Line: pos.Line, Column: pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "rcuvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s: [%s] %s\n", mod.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "rcuvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
