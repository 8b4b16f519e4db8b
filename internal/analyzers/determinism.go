package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism flags the three sources of run-to-run nondeterminism that
// have historically threatened the byte-identical report surface:
//
//   - wall-clock reads (time.Now, time.Since, time.Until),
//   - the math/rand package (its global source is seeded per-process),
//   - ranging over a map while emitting output from the loop body, so
//     the randomized iteration order becomes the output order. The
//     repo-standard collect-keys-then-sort idiom ranges without
//     emitting and passes; a fmt print call or Write* method inside the
//     loop does not, and neither does returning a fmt.Errorf or
//     fmt.Sprintf from it (the first failing key would be a random one).
//
// Test files are exempt. Production sites that are intentionally
// nondeterministic — telemetry timings that never reach a report, the
// fuzzer's explicitly seeded RNG — carry a
// `//cogdiff:allow-nondeterminism <reason>` directive on the same line
// or the line above; a directive without a reason is itself flagged.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall clocks, math/rand and map ranges on the deterministic report surface",
	Run:  runDeterminism,
}

// wallClockFuncs are the time package functions that read the wall
// clock. time.Sleep is deliberately absent: sleeping is schedule-visible
// but value-invisible.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runDeterminism(p *Pass) []Diagnostic {
	var out []Diagnostic
	report := func(node ast.Node, format string, args ...any) {
		pos := p.Fset.Position(node.Pos())
		if p.isTestFile(node.Pos()) {
			return
		}
		covered, hasReason := p.allowed(pos)
		if covered {
			if !hasReason {
				out = append(out, p.diag("determinism", node.Pos(),
					"allow-nondeterminism directive without a reason"))
			}
			return
		}
		out = append(out, p.diag("determinism", node.Pos(), format, args...))
	}

	for _, f := range p.Files {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"math/rand"` || imp.Path.Value == `"math/rand/v2"` {
				report(imp, "import of %s: use a seeded, explicitly threaded source instead", imp.Path.Value)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn := calleeFunc(p.Info, n); fn != nil &&
					fn.Pkg() != nil && fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()] {
					report(n, "call to time.%s: wall-clock reads are nondeterministic", fn.Name())
				}
			case *ast.RangeStmt:
				if tv, ok := p.Info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap && emitsInLoop(p.Info, n.Body) {
						report(n, "map range emits output in iteration order, which is nondeterministic: collect and sort first")
					}
				}
			}
			return true
		})
	}
	return out
}

// writeMethods are method names whose call inside a map-range body turns
// iteration order into output order.
var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// returnedFormats are the fmt functions whose result, returned from a
// map-range body, carries the iteration order into an error or a message.
var returnedFormats = map[string]bool{"Errorf": true, "Sprintf": true}

// emitsInLoop reports whether the loop body emits output — an fmt print
// call, a Write* method call or a returned fmt.Errorf or fmt.Sprintf —
// making iteration order observable.
func emitsInLoop(info *types.Info, body *ast.BlockStmt) bool {
	emits := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, r := range ret.Results {
				if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
					if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil &&
						fn.Pkg().Path() == "fmt" && returnedFormats[fn.Name()] {
						emits = true
					}
				}
			}
			return !emits
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || emits {
			return !emits
		}
		if fn := calleeFunc(info, call); fn != nil {
			if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Print") {
				emits = true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && writeMethods[fn.Name()] {
				emits = true
			}
			if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") {
				emits = true
			}
		}
		return !emits
	})
	return emits
}

// calleeFunc resolves a call expression's callee to the *types.Func it
// invokes, or nil for indirect calls and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
