package analyzers

import (
	"go/ast"

	"dclue/internal/lint/analysis"
)

// Goroutine confines real concurrency to the one package built for it:
// internal/runner (the work-stealing sweep pool, whose merge step restores
// point order). A `go` statement, channel, or sync.WaitGroup anywhere else
// introduces scheduling nondeterminism the kernel cannot serialize, which
// the byte-identical-sweep regression would only catch after the fact. The
// kernel, internal/sim, needs none of them: its processes are iter.Pull
// coroutines, resumed one at a time. iter.Pull and iter.Pull2 are flagged
// everywhere else, since a coroutine that model code builds itself bypasses
// Kill, Sim.Switches and the deadlock watchdog. sync.Mutex stays legal
// everywhere: mutual exclusion protects shared state without creating
// concurrency. Test files are exempt — the test harness may spawn helpers;
// model code may not.
//
// The analyzer also knows the continuation actor style: packages on the
// continuation-only list (see continuationOnly) are per-packet hot paths
// that were deliberately rebuilt as callback state machines, where a
// coroutine-backed sim.Proc would put a coroutine hand-off on every wake
// that crosses processes.
// There it additionally flags the process-backed kernel primitives —
// naming the sim.Proc, sim.Mailbox or sim.Waiter types, or calling
// sim.NewMailbox — since any use of the process API has to name one of
// them. Pure callback scheduling (sim.After/At, EventID) stays legal
// everywhere.
var Goroutine = &analysis.Analyzer{
	Name: "goroutine",
	Doc:  "forbid go statements, channels, and sync.WaitGroup outside internal/runner, and iter.Pull outside internal/sim; forbid process-backed sim primitives in continuation-only packages",
	Run:  runGoroutine,
}

func runGoroutine(pass *analysis.Pass) error {
	if concurrencyExempt(pass.PkgPath) {
		return nil
	}
	contOnly := continuationOnly(pass.PkgPath)
	kernel := coroutineKernel(pass.PkgPath)
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "goroutine spawned outside the sanctioned concurrency packages (internal/runner, the lint tooling): model code must run single-threaded under the sim kernel")
			case *ast.ChanType:
				pass.Reportf(n.Pos(), "channel type outside the sanctioned concurrency packages (internal/runner, the lint tooling): use sim.Mailbox for model-level message passing")
				return false // one report per channel type, not per nesting
			case *ast.SelectorExpr:
				id, ok := n.X.(*ast.Ident)
				if !ok {
					return true
				}
				switch n.Sel.Name {
				case "WaitGroup":
					if path, isPkg := pass.PkgNameOf(f, id); isPkg && path == "sync" {
						pass.Reportf(n.Pos(), "sync.WaitGroup outside the sanctioned concurrency packages (internal/runner, the lint tooling)")
					}
				case "Pull", "Pull2":
					if kernel {
						return true
					}
					if path, isPkg := pass.PkgNameOf(f, id); isPkg && path == "iter" {
						pass.Reportf(n.Pos(), "iter.%s outside internal/sim: a coroutine built by model code bypasses Kill, Sim.Switches and the deadlock watchdog; block in a sim.Proc instead", n.Sel.Name)
					}
				case "Proc", "Mailbox", "NewMailbox", "Waiter":
					if !contOnly {
						return true
					}
					if path, isPkg := pass.PkgNameOf(f, id); isPkg && isSimImport(path) {
						pass.Reportf(n.Pos(), "sim.%s in a continuation-only package: this hot path runs as callback state machines; processes would put coroutine hand-offs on a per-event path", n.Sel.Name)
					}
				}
			}
			return true
		})
	}
	return nil
}

// isSimImport matches the kernel package by full module path or by the bare
// fixture path.
func isSimImport(path string) bool {
	return path == "dclue/internal/sim" || path == "sim"
}
