// Package suite assembles the full rcuvet analyzer set. It exists apart
// from the framework so that individual analyzer tests do not build their
// siblings, while cmd/rcuvet and the self-check test share one registry.
package suite

import (
	"rcuarray/internal/analysis"
	"rcuarray/internal/analysis/guardpair"
	"rcuarray/internal/analysis/ignorecheck"
	"rcuarray/internal/analysis/seedpure"
)

// All returns the rcuvet analyzers in their canonical order. All three are
// syntactic passes.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		guardpair.Analyzer,
		seedpure.Analyzer,
		ignorecheck.Analyzer,
	}
}
