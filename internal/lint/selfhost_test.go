package lint

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dclue/internal/lint/analysis"
	"dclue/internal/lint/analyzers"
)

// moduleRoot locates the repository root (the directory holding go.mod).
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil || strings.TrimSpace(string(out)) == "" {
		t.Fatalf("go env GOMOD: %v", err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}

// TestSelfHost is the meta-test the tentpole demands: the determinism suite
// must exit clean on the repository itself. Any finding here is either a
// real determinism hazard (fix it) or a policy gap (adjust the analyzer or
// add a reasoned //lint:allow) — never something to ignore.
func TestSelfHost(t *testing.T) {
	if testing.Short() {
		t.Skip("self-host lint loads and type-checks the whole module")
	}
	findings, err := Run(Options{Dir: moduleRoot(t), Patterns: []string{"./..."}})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("dcluevet is not clean on its own repository: %d finding(s)", len(findings))
	}
}

// TestSelfHostOwnershipOnly runs the interprocedural ownership analyzers
// alone over the repository and expects nothing. Unlike TestSelfHost this
// exercises the -only path (a subset suite), where summaries must still be
// collected from every package even though only two analyzers run.
func TestSelfHostOwnershipOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("self-host lint loads and type-checks the whole module")
	}
	findings, err := Run(Options{
		Dir:       moduleRoot(t),
		Patterns:  []string{"./..."},
		Analyzers: []*analysis.Analyzer{analyzers.Poolown, analyzers.Eventid},
	})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("ownership analyzers are not clean on their own repository: %d finding(s)", len(findings))
	}
}
