// Command dcluevet runs the determinism and lifetime lint suite over the
// module: eight analyzers that enforce at the source level the invariants
// the runtime regressions (fingerprint determinism, byte-identical parallel
// sweeps, observer non-perturbation, pool balance) check at run time. See
// internal/lint/RULES.md for the rule catalog and the //lint:allow
// suppression syntax.
//
// Usage:
//
//	dcluevet [flags] [packages]      # default ./...
//	dcluevet -list                   # describe the analyzers
//	dcluevet -only poolown,eventid ./internal/...
//	dcluevet -sarif findings.sarif   # also write SARIF 2.1.0 for code scanning
//	dcluevet -allow-audit            # report stale //lint:allow directives
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dclue/internal/lint"
	"dclue/internal/lint/analysis"
	"dclue/internal/lint/analyzers"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list the analyzers and the invariant each enforces")
		only       = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		sarifFile  = flag.String("sarif", "", "write findings as SARIF 2.1.0 to this file (for GitHub code scanning upload)")
		allowAudit = flag.Bool("allow-audit", false, "also report //lint:allow directives that suppress nothing (runs the full suite)")
		verbose    = flag.Bool("v", false, "print loader warnings (stubbed imports, degraded types)")
	)
	flag.Parse()

	if *list {
		for _, a := range analyzers.All() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		os.Exit(0)
	}

	suite := analyzers.All()
	if *only != "" && *allowAudit {
		// A filtered suite cannot tell a stale directive from one whose
		// analyzer simply didn't run; the audit only means something over
		// the full suite.
		fmt.Fprintln(os.Stderr, "dcluevet: -allow-audit runs the full suite; ignoring -only")
		*only = ""
	}
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range suite {
			byName[a.Name] = a
		}
		suite = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "dcluevet: unknown analyzer %q; try -list\n", name)
				os.Exit(2)
			}
			suite = append(suite, a)
		}
	}

	opts := lint.Options{
		Patterns:   flag.Args(),
		Analyzers:  suite,
		AllowAudit: *allowAudit,
	}
	if *verbose {
		opts.Log = os.Stderr
	}
	findings, err := lint.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcluevet:", err)
		os.Exit(2)
	}
	if *sarifFile != "" {
		if err := writeSARIFFile(*sarifFile, findings, suite); err != nil {
			fmt.Fprintln(os.Stderr, "dcluevet: writing sarif:", err)
			os.Exit(2)
		}
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "dcluevet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// writeSARIFFile renders findings relative to the working directory, which
// in CI is the repository checkout — exactly what %SRCROOT% means to the
// code-scanning upload.
func writeSARIFFile(path string, findings []lint.Finding, suite []*analysis.Analyzer) error {
	root, _ := os.Getwd()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := lint.WriteSARIF(f, findings, suite, root); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
