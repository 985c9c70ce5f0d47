package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTestModule materializes a throwaway module the loader can `go list`,
// so audit behavior is tested against real loading rather than mocks.
func writeTestModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestAllowAudit: a directive that suppresses a live diagnostic is fine; a
// directive that suppresses nothing is reported (only) under -allow-audit.
func TestAllowAudit(t *testing.T) {
	dir := writeTestModule(t, map[string]string{
		"go.mod": "module stalecheck\n\ngo 1.22\n",
		"p.go": `package p

// Keys relies on a real suppression: the append below ranges over a map.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		//lint:allow maporder the caller sorts the result
		out = append(out, k)
	}
	return out
}

// Twice carries a stale suppression: nothing here iterates a map.
//lint:allow maporder nothing to suppress
func Twice(x int) int { return 2 * x }
`,
	})

	quiet, err := Run(Options{Dir: dir, Patterns: []string{"./..."}})
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	if len(quiet) != 0 {
		t.Fatalf("plain run must not report stale allows, got %v", quiet)
	}

	audited, err := Run(Options{Dir: dir, Patterns: []string{"./..."}, AllowAudit: true})
	if err != nil {
		t.Fatalf("audit run: %v", err)
	}
	if len(audited) != 1 {
		t.Fatalf("audit: got %d findings %v, want exactly the stale directive", len(audited), audited)
	}
	f := audited[0]
	if f.Analyzer != "allow" {
		t.Fatalf("stale directive attributed to %q, want \"allow\"", f.Analyzer)
	}
	if !strings.Contains(f.Message, "stale lint:allow maporder") {
		t.Fatalf("unexpected audit message: %q", f.Message)
	}
	if want := 14; f.Pos.Line != want {
		t.Fatalf("stale directive reported at line %d, want %d (the directive itself)", f.Pos.Line, want)
	}
}
