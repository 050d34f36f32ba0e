// Package region plans the per-region publication steps of a grow. Both the
// in-process array (core) and the TCP array (dist) split their block table
// into regions of a fixed number of blocks and publish a grow one region at a
// time; this package is the one statement of that plan.
package region

import "fmt"

// DefaultBlocks is the region width, in blocks, used when an Options value
// leaves it unset.
const DefaultBlocks = 8

// Step is one publication step of a grow: it publishes blocks [Lo, Hi), so
// after it the table is the first Hi blocks.
type Step struct {
	Lo, Hi int
}

// Count returns how many regions of rb blocks cover n blocks.
func Count(n, rb int) int { return (n + rb - 1) / rb }

// Plan splits a grow from oldLen to newLen blocks into steps that each stay
// inside one region of rb blocks: every step but the last ends on a multiple
// of rb (the first tops off a partly filled region), and the last ends at
// newLen. A grow by nothing has no steps.
func Plan(oldLen, newLen, rb int) []Step {
	var steps []Step
	for lo := oldLen; lo < newLen; {
		hi := min((lo/rb+1)*rb, newLen)
		steps = append(steps, Step{Lo: lo, Hi: hi})
		lo = hi
	}
	return steps
}

// Validate checks a received plan against a table of n blocks: non-empty
// contiguous steps whose final publication lands exactly on the full table,
// so every intermediate table is a prefix of the authoritative one.
func Validate(steps []Step, n int) error {
	for i, s := range steps {
		if s.Hi <= s.Lo || s.Hi > n {
			return fmt.Errorf("region: malformed step %d: [%d,%d) against table of %d", i, s.Lo, s.Hi, n)
		}
		if i > 0 && s.Lo != steps[i-1].Hi {
			return fmt.Errorf("region: step %d not contiguous: starts at %d, previous ends at %d", i, s.Lo, steps[i-1].Hi)
		}
	}
	if last := steps[len(steps)-1].Hi; last != n {
		return fmt.Errorf("region: plan ends at %d, table has %d blocks", last, n)
	}
	return nil
}
