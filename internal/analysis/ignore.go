package analysis

import (
	"go/token"
	"strings"
)

// IgnorePrefix is the escape-hatch directive. A comment of the form
//
//	//rcuvet:ignore <reason>
//
// suppresses every rcuvet diagnostic reported on the comment's own line and
// on the line immediately below it (so it works both as a trailing comment
// and as a standalone line above the flagged statement). The reason is
// mandatory; the ignorecheck analyzer rejects bare directives, and ignore
// directives never silence ignorecheck itself.
const IgnorePrefix = "rcuvet:ignore"

// Directive is one parsed //rcuvet:ignore comment.
type Directive struct {
	Pos    token.Pos
	Reason string
}

// ParseDirective extracts an ignore directive from a comment's text (the
// text as written, including the leading //). It returns ok=false for
// non-directive comments.
func ParseDirective(pos token.Pos, text string) (Directive, bool) {
	body, found := strings.CutPrefix(text, "//"+IgnorePrefix)
	if !found {
		return Directive{}, false
	}
	// "//rcuvet:ignoreX" is not a directive; require end or whitespace.
	if body != "" && body[0] != ' ' && body[0] != '\t' {
		return Directive{}, false
	}
	return Directive{Pos: pos, Reason: strings.TrimSpace(body)}, true
}

// ignoredLines maps (filename, line) pairs covered by ignore directives.
func ignoredLines(m *Module) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					d, ok := ParseDirective(c.Pos(), c.Text)
					if !ok {
						continue
					}
					pos := m.Fset.Position(d.Pos)
					lines := out[pos.Filename]
					if lines == nil {
						lines = make(map[int]bool)
						out[pos.Filename] = lines
					}
					lines[pos.Line] = true
					lines[pos.Line+1] = true
				}
			}
		}
	}
	return out
}

// filterIgnored drops diagnostics suppressed by ignore directives. The
// ignorecheck analyzer's own findings are exempt: an ignore comment must
// not be able to hide the report that it is malformed.
func filterIgnored(m *Module, diags []Diagnostic) []Diagnostic {
	ignored := ignoredLines(m)
	out := diags[:0]
	for _, d := range diags {
		if d.Analyzer != "ignorecheck" {
			pos := m.Fset.Position(d.Pos)
			if lines := ignored[pos.Filename]; lines != nil && lines[pos.Line] {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}
