// Package lint orchestrates the dcluevet determinism suite: it loads the
// module's packages (internal/lint/load), runs every analyzer
// (internal/lint/analyzers) over each, filters findings through
// //lint:allow suppressions, and returns the survivors in a stable order.
// cmd/dcluevet is the thin CLI over Run; the self-hosting meta-test holds
// the repository itself to zero findings.
package lint

import (
	"fmt"
	"go/token"
	"io"
	"sort"

	"dclue/internal/lint/analysis"
	"dclue/internal/lint/analyzers"
	"dclue/internal/lint/load"
)

// Finding is one post-suppression diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// Options configures a lint run.
type Options struct {
	// Dir is the directory to resolve patterns from (the module root or
	// below); empty means the current directory.
	Dir string
	// Patterns are go-list package patterns; default ./...
	Patterns []string
	// Analyzers is the suite to run; default analyzers.All().
	Analyzers []*analysis.Analyzer
	// AllowAudit additionally reports //lint:allow directives that
	// suppressed nothing this run (stale suppressions), as findings under
	// the "allow" pseudo-analyzer.
	AllowAudit bool
	// Log, when non-nil, receives loader warnings (stubbed imports etc.).
	Log io.Writer
}

// Run executes the suite and returns all findings, sorted by position.
func Run(opts Options) ([]Finding, error) {
	suite := opts.Analyzers
	if suite == nil {
		suite = analyzers.All()
	}
	// The set of allow-directive names every run accepts is the full
	// registered suite, not just the analyzers selected by -only: a
	// directive for an analyzer that simply isn't running this time is
	// dormant, not malformed.
	known := analyzers.Known()
	for _, a := range suite {
		known[a.Name] = true
	}

	res, err := load.Modules(opts.Dir, opts.Patterns...)
	if err != nil {
		return nil, err
	}
	if opts.Log != nil {
		for _, w := range res.Warnings {
			fmt.Fprintln(opts.Log, "dcluevet:", w)
		}
	}

	facts := analysis.NewFacts()

	var findings []Finding
	for _, pkg := range res.Packages {
		// Summaries come first: packages load dependencies first, so every
		// cross-package fact (ownership summaries) a package's analyzers
		// consult is already recorded when they run.
		for _, a := range suite {
			if a.Summarize == nil {
				continue
			}
			pass := newPass(res.Fset, pkg, a, facts, func(analysis.Diagnostic) {})
			if err := a.Summarize(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s summarizing %s: %v", a.Name, pkg.Path, err)
			}
		}
		pf, err := runPackage(res.Fset, pkg, suite, known, facts, opts.AllowAudit)
		if err != nil {
			return nil, err
		}
		findings = append(findings, pf...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// newPass builds one analyzer's view of one loaded package.
func newPass(fset *token.FileSet, pkg *load.Package, a *analysis.Analyzer, facts *analysis.Facts, report func(analysis.Diagnostic)) *analysis.Pass {
	return &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		PkgPath:   pkg.Path,
		Facts:     facts,
		Report:    report,
	}
}

// runPackage applies the suite to one package and filters suppressions.
// With audit set it additionally reports the package's stale allow
// directives (ones that suppressed nothing).
func runPackage(fset *token.FileSet, pkg *load.Package, suite []*analysis.Analyzer, known map[string]bool, facts *analysis.Facts, audit bool) ([]Finding, error) {
	allows := analysis.CollectAllows(fset, pkg.Files, known)
	var findings []Finding
	for _, d := range allows.Malformed {
		findings = append(findings, Finding{Analyzer: "allow", Pos: fset.Position(d.Pos), Message: d.Message})
	}
	for _, a := range suite {
		var diags []analysis.Diagnostic
		pass := newPass(fset, pkg, a, facts, func(d analysis.Diagnostic) { diags = append(diags, d) })
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %v", a.Name, pkg.Path, err)
		}
		for _, d := range allows.Filter(a.Name, diags) {
			findings = append(findings, Finding{Analyzer: a.Name, Pos: fset.Position(d.Pos), Message: d.Message})
		}
	}
	if audit {
		for _, d := range allows.Stale() {
			findings = append(findings, Finding{Analyzer: "allow", Pos: fset.Position(d.Pos), Message: d.Message})
		}
	}
	return findings, nil
}
