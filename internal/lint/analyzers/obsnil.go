package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dclue/internal/lint/analysis"
)

// Obsnil enforces the zero-cost fast path of both observers: Params.Trace
// and Params.Telemetry, and every handle derived from them, are nil on a run
// without that observer, so model code may only call their methods behind a
// nil check. The telemetry hooks sit on the hottest paths in the simulator —
// per-packet link transmits, per-dispatch CPU accounting, per-IO disk
// completions — where a missing guard is a nil-pointer crash on the common
// path that no observed test would ever see. The analyzer tracks guards
// flow-lite:
//
//   - `if h != nil { ... }` (including `h != nil && ...` conjuncts) guards
//     the branch; `if h == nil { return }` guards the rest of the block;
//   - a variable assigned from a `New...` constructor, a composite literal,
//     or an already-guarded expression is known non-nil;
//   - `range` value variables are assumed non-nil (collections of handles
//     hold live handles).
var Obsnil = &analysis.Analyzer{
	Name: "obsnil",
	Doc:  "require a nil check around every call on an observer handle (trace Collector/Run/Span, telemetry Collector/Registry/*Tel); unobserved runs carry nil handles on the fast path",
	Run:  runObsnil,
}

// nilRule describes one observer package: its nilable handle types and how
// the diagnostic words the handle-disabled fast path.
type nilRule struct {
	handles map[string]bool // nilable handle type names within the package
	offPath string          // adjective for the handle-disabled fast path
}

// obsRules is the rule table, keyed by the name of the package declaring
// the handle types. Each of those packages is itself exempt — its methods
// are the implementation the guards protect — matched by name so each
// fixture's miniature package behaves like the real one.
var obsRules = map[string]nilRule{
	"trace": {
		handles: map[string]bool{"Collector": true, "Run": true, "Span": true},
		offPath: "untraced",
	},
	"telemetry": {
		handles: map[string]bool{
			"Collector": true,
			"Registry":  true,
			"LinkTel":   true,
			"QueueTel":  true,
			"CPUTel":    true,
			"DiskTel":   true,
			"GCSTel":    true,
		},
		offPath: "untelemetered",
	},
}

func runObsnil(pass *analysis.Pass) error {
	if _, exempt := obsRules[pass.Pkg.Name()]; exempt {
		return nil
	}
	v := &nilVisitor{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				v.stmts(fd.Body.List, newGuards())
			}
		}
	}
	return nil
}

// guards is the set of expressions (by printed form) known non-nil at the
// current program point.
type guards map[string]bool

func newGuards() guards { return make(guards) }

func (g guards) clone() guards {
	c := make(guards, len(g))
	for k, v := range g {
		c[k] = v
	}
	return c
}

type nilVisitor struct {
	pass *analysis.Pass
}

// stmts visits a statement list, applying the early-exit guard pattern:
// after `if h == nil { return }`, h is non-nil for the rest of the list.
func (v *nilVisitor) stmts(list []ast.Stmt, g guards) {
	for _, s := range list {
		v.stmt(s, g)
		if ifs, ok := s.(*ast.IfStmt); ok && ifs.Else == nil {
			if e, isNilEq := nilCompare(ifs.Cond, token.EQL); isNilEq && terminates(ifs.Body) {
				g[types.ExprString(e)] = true
			}
		}
	}
}

func (v *nilVisitor) stmt(s ast.Stmt, g guards) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		v.stmts(s.List, g.clone())
	case *ast.IfStmt:
		v.stmt(s.Init, g)
		condG := g.clone()
		v.cond(s.Cond, condG) // checks calls in the cond, collecting conjunct guards
		thenG := g.clone()
		addNonNil(s.Cond, thenG)
		v.stmt(s.Body, thenG)
		if s.Else != nil {
			elseG := g.clone()
			if e, ok := nilCompare(s.Cond, token.EQL); ok {
				elseG[types.ExprString(e)] = true
			}
			v.stmt(s.Else, elseG)
		}
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			v.expr(r, g)
		}
		v.trackAssign(s, g)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						v.expr(val, g)
					}
					for i, name := range vs.Names {
						if i < len(vs.Values) && v.nonNilExpr(vs.Values[i], g) {
							g[name.Name] = true
						}
					}
				}
			}
		}
	case *ast.ExprStmt:
		v.expr(s.X, g)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			v.expr(e, g)
		}
	case *ast.RangeStmt:
		v.expr(s.X, g)
		body := g.clone()
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				body[id.Name] = true
			}
		}
		v.stmts(s.Body.List, body)
	case *ast.ForStmt:
		inner := g.clone()
		v.stmt(s.Init, inner)
		if s.Cond != nil {
			v.expr(s.Cond, inner)
		}
		v.stmt(s.Post, inner)
		v.stmts(s.Body.List, inner)
	case *ast.SwitchStmt:
		v.stmt(s.Init, g)
		if s.Tag != nil {
			v.expr(s.Tag, g)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					v.expr(e, g)
				}
				v.stmts(cc.Body, g.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		v.stmt(s.Init, g)
		v.stmt(s.Assign, g)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				v.stmts(cc.Body, g.clone())
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				v.stmt(cc.Comm, g)
				v.stmts(cc.Body, g.clone())
			}
		}
	case *ast.GoStmt:
		v.expr(s.Call, g)
	case *ast.DeferStmt:
		v.expr(s.Call, g)
	case *ast.SendStmt:
		v.expr(s.Chan, g)
		v.expr(s.Value, g)
	case *ast.LabeledStmt:
		v.stmt(s.Stmt, g)
	case *ast.IncDecStmt:
		v.expr(s.X, g)
	}
}

// trackAssign updates guard state for `x := rhs` / `x = rhs` forms.
func (v *nilVisitor) trackAssign(s *ast.AssignStmt, g guards) {
	if len(s.Lhs) == len(s.Rhs) {
		for i, lhs := range s.Lhs {
			key := types.ExprString(lhs)
			if v.nonNilExpr(s.Rhs[i], g) {
				g[key] = true
			} else {
				delete(g, key)
			}
		}
		return
	}
	// Multi-value assignment: no guarantees about any target.
	for _, lhs := range s.Lhs {
		delete(g, types.ExprString(lhs))
	}
}

// nonNilExpr reports whether e is statically known non-nil: a New*
// constructor call, a composite literal (or its address), or an expression
// already guarded.
func (v *nilVisitor) nonNilExpr(e ast.Expr, g guards) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		switch fun := e.Fun.(type) {
		case *ast.Ident:
			return strings.HasPrefix(fun.Name, "New")
		case *ast.SelectorExpr:
			return strings.HasPrefix(fun.Sel.Name, "New")
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, isLit := e.X.(*ast.CompositeLit)
			return isLit
		}
	case *ast.CompositeLit:
		return true
	case *ast.IndexExpr:
		// Indexing a collection of handles: same live-handle assumption as
		// range values (a collector's Runs() slice holds live runs).
		return true
	default:
		return g[types.ExprString(e)]
	}
	return false
}

// cond walks a boolean condition left to right: in `a != nil && a.F()`,
// the left conjunct's guarantee covers the right conjunct.
func (v *nilVisitor) cond(e ast.Expr, g guards) {
	if be, ok := e.(*ast.BinaryExpr); ok && be.Op == token.LAND {
		v.cond(be.X, g)
		addNonNil(be.X, g)
		v.cond(be.Y, g)
		return
	}
	v.expr(e, g)
}

// expr recursively checks an expression tree for unguarded observer-handle
// calls.
func (v *nilVisitor) expr(e ast.Expr, g guards) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		v.checkCall(e, g)
		v.expr(e.Fun, g)
		for _, a := range e.Args {
			v.expr(a, g)
		}
	case *ast.SelectorExpr:
		v.expr(e.X, g)
	case *ast.BinaryExpr:
		if e.Op == token.LAND {
			v.cond(e, g.clone())
			return
		}
		v.expr(e.X, g)
		v.expr(e.Y, g)
	case *ast.UnaryExpr:
		v.expr(e.X, g)
	case *ast.ParenExpr:
		v.expr(e.X, g)
	case *ast.StarExpr:
		v.expr(e.X, g)
	case *ast.IndexExpr:
		v.expr(e.X, g)
		v.expr(e.Index, g)
	case *ast.SliceExpr:
		v.expr(e.X, g)
	case *ast.TypeAssertExpr:
		v.expr(e.X, g)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			v.expr(el, g)
		}
	case *ast.KeyValueExpr:
		v.expr(e.Value, g)
	case *ast.FuncLit:
		// A closure created here inherits the syntactic guard context of
		// its creation site.
		v.stmts(e.Body.List, g.clone())
	}
}

// checkCall reports a method call on a possibly-nil observer handle.
func (v *nilVisitor) checkCall(call *ast.CallExpr, g guards) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	recv := sel.X
	if id, ok := recv.(*ast.Ident); ok {
		if _, isPkg := v.pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
			return // package-qualified function call, not a method
		}
	}
	pkg, name, ok := handleType(v.pass.TypeOf(recv))
	if !ok {
		return
	}
	if v.nonNilExpr(recv, g) || g[types.ExprString(recv)] {
		return
	}
	v.pass.Reportf(call.Pos(),
		"call to (%s).%s on a possibly-nil %s handle (*%s.%s): the %s fast path needs `if %s != nil` first",
		types.ExprString(recv), sel.Sel.Name, pkg, pkg, name, obsRules[pkg].offPath, types.ExprString(recv))
}

// handleType reports whether t (or its pointee) is a nilable handle type of
// an observer package (matched by package name), returning that package's
// name and the type's.
func handleType(t types.Type) (pkg, name string, ok bool) {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	pkg, name = obj.Pkg().Name(), obj.Name()
	return pkg, name, obsRules[pkg].handles[name]
}

// nilCompare matches `e <op> nil` / `nil <op> e`, returning e.
func nilCompare(cond ast.Expr, op token.Token) (ast.Expr, bool) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op != op {
		return nil, false
	}
	if isNilIdent(be.Y) {
		return be.X, true
	}
	if isNilIdent(be.X) {
		return be.Y, true
	}
	return nil, false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// addNonNil folds the non-nil guarantees of cond into g: `e != nil`
// conjuncts, recursively through &&.
func addNonNil(cond ast.Expr, g guards) {
	if be, ok := cond.(*ast.BinaryExpr); ok && be.Op == token.LAND {
		addNonNil(be.X, g)
		addNonNil(be.Y, g)
		return
	}
	if e, ok := nilCompare(cond, token.NEQ); ok {
		g[types.ExprString(e)] = true
	}
}

// terminates reports whether a block always leaves the enclosing statement
// list (return, break, continue, goto, panic, or a Fatal*/Exit call last).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			return fun.Name == "panic"
		case *ast.SelectorExpr:
			n := fun.Sel.Name
			return strings.HasPrefix(n, "Fatal") || n == "Exit" || n == "Goexit"
		}
	}
	return false
}
