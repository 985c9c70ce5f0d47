package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"dclue/internal/lint/analysis"
)

// Maporder flags order-sensitive work inside `range` over a map. Go
// randomizes map iteration order on purpose, so a map range whose body
// appends to an outer slice, sends on a channel, writes output, or
// schedules simulator events produces a different observable order every
// run — exactly the nondeterminism the byte-identical sweep tables and
// golden fixtures forbid. Float accumulation into an outer variable is
// order-sensitive too: floating-point addition is not associative, so the
// same values summed in another order can differ in the low bits, and
// every metric feeds the run fingerprint. Commutative bodies (counting, set
// insertion, integer sums, delete) pass; to iterate in order, sort the keys
// into a slice first and range over that.
var Maporder = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "forbid order-sensitive effects (append to outer slice, float accumulation, channel send, output, event scheduling) inside range over a map; sort keys first",
	Run:  runMaporder,
}

// orderSensitiveCallees are selector names whose call emits something in
// iteration order: formatted printing and direct writer access.
var orderSensitiveCallees = map[string]string{
	"Print":       "printing",
	"Printf":      "printing",
	"Println":     "printing",
	"Fprint":      "printing",
	"Fprintf":     "printing",
	"Fprintln":    "printing",
	"Write":       "writing output",
	"WriteString": "writing output",
	"WriteByte":   "writing output",
	"WriteRune":   "writing output",
}

// simSchedulers are the sim.Sim methods that schedule events: called in map
// order, they reorder the event calendar between runs. Other types share
// these names (sim.Queue.At reads a slot), so a call counts only when the
// method's receiver is sim.Sim.
var simSchedulers = map[string]bool{"Spawn": true, "After": true, "At": true}

func runMaporder(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		sorts := collectSortCalls(f)
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !isMapRange(pass, rs) {
				return true
			}
			checkMapRangeBody(pass, rs, f, sorts)
			return true
		})
	}
	return nil
}

// sortCall is a call that establishes a deterministic order on its first
// argument (sort.Strings(keys) and friends).
type sortCall struct {
	root string // root identifier of the sorted expression
	pos  token.Pos
}

// sortFuncs are the sort/slices functions that order their first argument.
var sortFuncs = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true,
	"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	"SortFunc": true, "SortStableFunc": true,
}

func collectSortCalls(f *ast.File) []sortCall {
	var out []sortCall
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !sortFuncs[sel.Sel.Name] {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); !ok || (id.Name != "sort" && id.Name != "slices") {
			return true
		}
		if root := rootIdent(call.Args[0]); root != "" {
			out = append(out, sortCall{root: root, pos: call.Pos()})
		}
		return true
	})
	return out
}

// rootIdent digs to the base identifier of an expression (possibly through
// selectors, indexes, derefs, and interface-adapter conversions like
// sort.Sort(byName(xs))).
func rootIdent(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			if len(x.Args) != 1 {
				return ""
			}
			e = x.Args[0]
		default:
			return ""
		}
	}
}

// sortedAfter reports whether the expression appended to inside rs is
// passed to a sort function after the range but within the enclosing
// function — the sanctioned collect-then-sort idiom.
func sortedAfter(target ast.Expr, rs *ast.RangeStmt, f *ast.File, sorts []sortCall) bool {
	root := rootIdent(target)
	if root == "" {
		return false
	}
	end := enclosingFuncEnd(f, rs)
	for _, sc := range sorts {
		if sc.root == root && sc.pos > rs.End() && sc.pos <= end {
			return true
		}
	}
	return false
}

// enclosingFuncEnd returns the End of the smallest function literal or
// declaration containing n (or the file end if none).
func enclosingFuncEnd(f *ast.File, n ast.Node) token.Pos {
	end := f.End()
	ast.Inspect(f, func(fn ast.Node) bool {
		switch fn := fn.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if fn.Pos() <= n.Pos() && n.End() <= fn.End() && fn.End() <= end {
				end = fn.End()
			}
		}
		return true
	})
	return end
}

// isMapRange reports whether rs iterates a map.
func isMapRange(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRangeBody reports each order-sensitive operation in the body.
func checkMapRangeBody(pass *analysis.Pass, rs *ast.RangeStmt, f *ast.File, sorts []sortCall) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// A nested map range reports its own body once, when the
			// inspector reaches it at the top level.
			if n != rs && isMapRange(pass, n) {
				return false
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside range over map: iteration order is random — sort the keys and range the slice")
		case *ast.AssignStmt:
			checkAppendToOuter(pass, rs, n, f, sorts)
			checkFloatAccum(pass, rs, n)
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				what, bad := orderSensitiveCallees[sel.Sel.Name]
				if !bad && isSimScheduler(pass, sel) {
					what, bad = "scheduling simulator events", true
				}
				if bad {
					pass.Reportf(n.Pos(), "%s inside range over map: iteration order is random — sort the keys and range the slice", what)
				}
			}
		}
		return true
	})
}

// isSimScheduler reports whether sel names a simSchedulers method declared
// on sim.Sim (directly or promoted through an embedding).
func isSimScheduler(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	if !simSchedulers[sel.Sel.Name] {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Sim" && n.Obj().Pkg() != nil && isSimImport(n.Obj().Pkg().Path())
}

// checkAppendToOuter flags `x = append(x, ...)` where x outlives the range
// statement and is not sorted afterwards: the resulting element order
// differs between runs. Collect-then-sort — appending inside the range and
// passing the slice to sort.X before the function returns — is the
// sanctioned idiom and passes.
func checkAppendToOuter(pass *analysis.Pass, rs *ast.RangeStmt, as *ast.AssignStmt, f *ast.File, sorts []sortCall) {
	for _, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
			continue
		}
		if declaredOutside(pass, call.Args[0], rs) && !sortedAfter(call.Args[0], rs, f, sorts) {
			pass.Reportf(call.Pos(), "append to %s inside range over map without a later sort: element order is random — sort the result or range sorted keys",
				types.ExprString(call.Args[0]))
		}
	}
}

// accumOps are the compound assignments that accumulate into their target.
var accumOps = map[token.Token]bool{
	token.ADD_ASSIGN: true,
	token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true,
	token.QUO_ASSIGN: true,
}

// checkFloatAccum flags `x += v` (and -=, *=, /=) where x is a float that
// outlives the range statement: float arithmetic is not associative, so
// the result depends on the iteration order.
func checkFloatAccum(pass *analysis.Pass, rs *ast.RangeStmt, as *ast.AssignStmt) {
	if !accumOps[as.Tok] || len(as.Lhs) != 1 {
		return
	}
	lhs := as.Lhs[0]
	if !isFloat(pass.TypeOf(lhs)) || !declaredOutside(pass, lhs, rs) {
		return
	}
	pass.Reportf(as.Pos(),
		"float accumulation into %s inside range over map: float addition is order-sensitive and the iteration order is random — sort the keys first",
		types.ExprString(lhs))
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// declaredOutside reports whether expr refers to storage declared outside
// the statement span [outer.Pos(), outer.End()]. Selector expressions
// (fields, package vars) always count as outside.
func declaredOutside(pass *analysis.Pass, expr ast.Expr, outer ast.Node) bool {
	switch e := expr.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = pass.TypesInfo.Defs[e]
		}
		if obj == nil {
			return false // unresolved; do not guess
		}
		pos := obj.Pos()
		return pos != token.NoPos && (pos < outer.Pos() || pos > outer.End())
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return declaredOutside(pass, e.X, outer)
	case *ast.StarExpr:
		return declaredOutside(pass, e.X, outer)
	case *ast.ParenExpr:
		return declaredOutside(pass, e.X, outer)
	}
	return false
}
