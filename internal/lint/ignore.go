package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// A suppression is one well-formed //lint:ignore comment. It silences
// findings of the named analyzers on the comment's own line and on the
// line directly below it, so both trailing and preceding placements work:
//
//	os.WriteFile(p, b, 0o644) //lint:ignore atomicwrite bootstrap file predates the artifact layer
//
//	//lint:ignore ctxpropagate the parent ctx already fired; Background keeps the select from re-entering
//	ctx = context.Background()
type suppression struct {
	analyzers []string
	line      int
	file      string
}

type suppressionSet []suppression

const ignorePrefix = "lint:ignore"

// matches reports whether a finding by analyzer at p is suppressed.
func (s suppressionSet) matches(analyzer string, p token.Position) bool {
	for _, sup := range s {
		if sup.file != p.Filename {
			continue
		}
		if p.Line != sup.line && p.Line != sup.line+1 {
			continue
		}
		for _, a := range sup.analyzers {
			if a == analyzer {
				return true
			}
		}
	}
	return false
}

// collectSuppressions scans every comment in the files for //lint:ignore
// directives. A directive must name at least one analyzer and give a
// non-empty reason; anything else is reported as a finding of the
// pseudo-analyzer "suppress" so a lazy suppression cannot silently rot.
func collectSuppressions(fset *token.FileSet, files []*ast.File) (suppressionSet, []Diagnostic) {
	var sups suppressionSet
	var bad []Diagnostic
	known := make(map[string]bool)
	for _, a := range All {
		known[a.Name] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, ignorePrefix)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				malformed := func(msg string) {
					bad = append(bad, Diagnostic{
						Analyzer: "suppress",
						Pos:      pos,
						Message:  msg,
					})
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					malformed("lint:ignore needs an analyzer name and a reason")
					continue
				}
				names := strings.Split(fields[0], ",")
				reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
				if reason == "" {
					malformed("lint:ignore " + fields[0] + " is missing the mandatory reason")
					continue
				}
				valid := true
				for _, n := range names {
					if !known[n] {
						malformed("lint:ignore names unknown analyzer " + n)
						valid = false
						break
					}
				}
				if !valid {
					continue
				}
				sups = append(sups, suppression{
					analyzers: names,
					line:      pos.Line,
					file:      pos.Filename,
				})
			}
		}
	}
	return sups, bad
}
