// Package analysis is a reusable stdlib-only static-analysis framework
// for this module: rules inspect type-checked packages and report
// position-accurate diagnostics, and `//lint:ignore rule reason`
// comments suppress individual findings. cmd/kwslint drives it over the
// whole tree; internal/analysis/rules holds the engine-specific rules.
//
// The framework deliberately uses only go/ast, go/parser, go/token and
// go/types (no golang.org/x/tools dependency) so it builds anywhere the
// Go toolchain does.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Rule is one static check. Check inspects the Pass's package and calls
// Pass.Reportf for each violation.
type Rule interface {
	// Name is the stable identifier used in diagnostics and in
	// `//lint:ignore name reason` suppression comments.
	Name() string
	// Doc is a one-line description shown by `kwslint -rules`.
	Doc() string
	// Check runs the rule over one package.
	Check(p *Pass)
}

// Diagnostic is one finding, positioned at a concrete file location.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
	// Fix, when non-nil, is a machine-applicable remediation (see
	// SuggestedFix); kwslint -fix applies it.
	Fix *SuggestedFix
}

// String formats the diagnostic the way compilers do:
// path:line:col: message (rule).
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Rule)
}

// Pass carries one type-checked package through a rule. The type
// information is best-effort: when an import could not be resolved the
// corresponding types degrade to invalid, and rules are expected to skip
// nodes they cannot type rather than guess.
type Pass struct {
	Fset *token.FileSet
	// Files holds the parsed non-test files of the package.
	Files []*ast.File
	// Path is the package's import path ("" for fixture loads by dir).
	Path string
	// Pkg is the type-checked package (never nil, possibly incomplete).
	Pkg *types.Package
	// Info carries the type-checker's results for expressions in Files.
	Info *types.Info

	rule     string
	diags    *[]Diagnostic
	ignores  []ignoreDirective
	reported map[string]bool
}

// ignoreDirective is one parsed `//lint:ignore rules reason` comment: it
// suppresses the named rules (comma-separated, or "all") on the line it
// occupies and on the line directly below it.
type ignoreDirective struct {
	file  string
	line  int
	rules map[string]bool
}

// IgnorePrefix is the comment prefix of the suppression directive.
const IgnorePrefix = "lint:ignore"

// parseIgnores collects suppression directives from every comment in the
// pass's files.
func (p *Pass) parseIgnores() {
	p.ignores = nil
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, IgnorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, IgnorePrefix))
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					// A directive without a reason is malformed; report it
					// so it cannot silently suppress anything.
					pos := p.Fset.Position(c.Pos())
					*p.diags = append(*p.diags, Diagnostic{
						Pos:     pos,
						Rule:    "lint-directive",
						Message: "malformed " + IgnorePrefix + " directive: want `//lint:ignore rule reason`",
					})
					continue
				}
				rules := map[string]bool{}
				for _, r := range strings.Split(fields[0], ",") {
					rules[r] = true
				}
				pos := p.Fset.Position(c.Pos())
				p.ignores = append(p.ignores, ignoreDirective{file: pos.Filename, line: pos.Line, rules: rules})
			}
		}
	}
}

// suppressed reports whether a diagnostic of rule at pos is covered by an
// ignore directive on the same line or the line immediately above.
func (p *Pass) suppressed(rule string, pos token.Position) bool {
	for _, ig := range p.ignores {
		if ig.file != pos.Filename {
			continue
		}
		if ig.line != pos.Line && ig.line != pos.Line-1 {
			continue
		}
		if ig.rules["all"] || ig.rules[rule] {
			return true
		}
	}
	return false
}

// Reportf records a diagnostic for the running rule at pos, unless a
// suppression directive covers it. Duplicate (position, rule, message)
// triples are coalesced so rules may re-visit nodes freely.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(pos, nil, format, args...)
}

// ReportfFix is Reportf with a suggested fix attached: kwslint -fix
// applies fix's edits.
func (p *Pass) ReportfFix(pos token.Pos, fix *SuggestedFix, format string, args ...interface{}) {
	p.report(pos, fix, format, args...)
}

func (p *Pass) report(pos token.Pos, fix *SuggestedFix, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.suppressed(p.rule, position) {
		return
	}
	if fix != nil && !fix.resolve(p.Fset) {
		fix = nil // unresolvable edits: keep the finding, drop the fix
	}
	d := Diagnostic{Pos: position, Rule: p.rule, Message: fmt.Sprintf(format, args...), Fix: fix}
	key := d.String()
	if p.reported[key] {
		return
	}
	p.reported[key] = true
	*p.diags = append(*p.diags, d)
}

// TypeOf returns the type of e, or nil when the checker could not
// determine one (e.g. because an import failed to resolve).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	t := p.Info.TypeOf(e)
	if t == nil || t == types.Typ[types.Invalid] {
		return nil
	}
	return t
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// Most rules skip test code: tests may legitimately compare exact floats
// or block on channels without a context.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Run executes the rules over the package and returns the surviving
// diagnostics sorted by position.
func Run(pkg *Package, rules []Rule) []Diagnostic {
	var diags []Diagnostic
	p := &Pass{
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Path:     pkg.Path,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		diags:    &diags,
		reported: map[string]bool{},
	}
	p.rule = "lint-directive"
	p.parseIgnores()
	for _, r := range rules {
		p.rule = r.Name()
		r.Check(p)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags
}
