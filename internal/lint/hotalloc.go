package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc forbids per-call heap allocations inside functions annotated
// //mmm:hotpath. The annotation marks every function that runs per
// simulated cycle (the chip's run loop, the core pipeline) or per
// generated instruction (the trace generator and the sim.Rand and isa
// helpers it calls); the directive in the source is the one list of
// them, and `grep -rn '^//mmm:hotpath' internal` prints it. A make, a
// map or slice literal, or an append whose result escapes its input
// slice inside one of these functions runs millions of times per
// simulated second; the `mmmgate bench` regression gate catches the
// throughput loss after the fact, this analyzer catches the allocation
// at compile time. Audited
// sites carry //mmm:hotalloc-ok <reason> (e.g. a cold error path, or a
// buffer that demonstrably reaches steady-state capacity).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "forbid make/map/escaping-append allocations inside functions " +
		"annotated //mmm:hotpath",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, found := pass.directiveAt("hotpath", fd.Pos()); !found {
				continue
			}
			checkHotBody(pass, fd.Name.Name, fd.Body)
		}
	}
	return nil
}

// checkHotBody reports every allocation site in one annotated function
// body. Nested function literals are included: a closure declared in a
// hot function allocates (and runs) on the hot path too.
func checkHotBody(pass *Pass, fname string, body *ast.BlockStmt) {
	// Appends whose result is assigned back to their own first argument
	// (x = append(x, ...)) reuse the slice's capacity at steady state —
	// the scratch-buffer idiom — and are allowed. Any other append forces
	// the result to escape its input.
	selfAppend := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltin(pass.TypesInfo, call.Fun, "append") || len(call.Args) == 0 {
				continue
			}
			if render(pass.Fset, as.Lhs[i]) == render(pass.Fset, call.Args[0]) {
				selfAppend[call] = true
			}
		}
		return true
	})

	report := func(pos token.Pos, what string) {
		if pass.Suppressed("hotalloc-ok", pos) {
			return
		}
		msg := "%s in //mmm:hotpath function %s allocates on the hot loop; " +
			"reuse a scratch buffer or suppress with //mmm:hotalloc-ok <reason> after an audit"
		if d, found := pass.directiveAt("hotalloc-ok", pos); found && d.reason == "" {
			msg = "%s in //mmm:hotpath function %s has a //mmm:hotalloc-ok directive with no reason; " +
				"audited suppressions must say why"
		}
		pass.Reportf(pos, msg, what, fname)
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch {
			case isBuiltin(pass.TypesInfo, n.Fun, "make"):
				report(n.Pos(), "make")
			case isBuiltin(pass.TypesInfo, n.Fun, "append") && !selfAppend[n]:
				report(n.Pos(), "append escaping its input slice")
			}
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				report(n.Pos(), "map literal")
			case *types.Slice:
				report(n.Pos(), "slice literal")
			}
		}
		return true
	})
}

// isBuiltin reports whether fun names the given predeclared builtin
// (resolved through the type checker, so shadowing does not confuse it).
func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}
