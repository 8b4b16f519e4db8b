package cogdiff

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§5). Run with:
//
//	go test -bench=. -benchmem
//
// Absolute times differ from the paper's 2015 MacBook + Pharo AST
// meta-interpreter; EXPERIMENTS.md records the measured-vs-paper values
// and the preserved shapes.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/core"
	"cogdiff/internal/fuzzer"
	"cogdiff/internal/heap"
	"cogdiff/internal/interp"
	"cogdiff/internal/primitives"
	"cogdiff/internal/report"
	"cogdiff/internal/telemetry"
)

// setupCampaign runs one full campaign outside the timed region, as
// benchmark input. Each benchmark builds its own result — no package
// state is shared between b.Run cases, so every benchmark measures the
// same thing whatever -benchtime, -count or benchmark subset is used.
func setupCampaign(b *testing.B) *core.CampaignResult {
	b.Helper()
	res := core.NewCampaign(core.DefaultConfig()).Run()
	b.ResetTimer()
	return res
}

// BenchmarkTable1AddBytecodePaths regenerates Table 1: the concolic
// execution paths of the integer-addition byte-code.
func BenchmarkTable1AddBytecodePaths(b *testing.B) {
	prims := primitives.NewTable()
	var last *concolic.Exploration
	for i := 0; i < b.N; i++ {
		explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
		last = explorer.Explore(concolic.BytecodeTarget(bytecode.OpPrimAdd))
	}
	b.StopTimer()
	b.Logf("\n%s", report.Table1(last))
}

// BenchmarkTable2Campaign regenerates Table 2: the full differential
// campaign over 4 compilers and 2 ISAs.
func BenchmarkTable2Campaign(b *testing.B) {
	var res *core.CampaignResult
	for i := 0; i < b.N; i++ {
		res = core.NewCampaign(core.DefaultConfig()).Run()
	}
	b.ReportMetric(float64(res.TotalDifferences()), "differences/op")
	b.StopTimer()
	b.Logf("\n%s", report.Table2(res))
}

// BenchmarkCampaignParallel measures the parallel campaign engine: the
// full Table 2 campaign sharded over 1, 2 and GOMAXPROCS workers. The
// deterministic merge keeps every variant's output byte-identical; only
// wall-clock changes. The telemetry=on variants quantify the overhead of
// full metric collection (EXPERIMENTS.md records the numbers; the
// contract is <3%). Every iteration builds its configuration from
// scratch, so -benchtime and -count runs are independent.
func BenchmarkCampaignParallel(b *testing.B) {
	benchConfig := func(workers int, withTelemetry bool) core.Config {
		cfg := core.DefaultConfig()
		cfg.Workers = workers
		if withTelemetry {
			cfg.Metrics = telemetry.NewRegistry()
		}
		return cfg
	}
	for _, bc := range []struct {
		name      string
		workers   int
		telemetry bool
	}{
		{"workers=1", 1, false},
		{"workers=1/telemetry=on", 1, true},
		{"workers=2", 2, false},
		{fmt.Sprintf("workers=gomaxprocs(%d)", runtime.GOMAXPROCS(0)), 0, false},
		{fmt.Sprintf("workers=gomaxprocs(%d)/telemetry=on", runtime.GOMAXPROCS(0)), 0, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var res *core.CampaignResult
			for i := 0; i < b.N; i++ {
				res = core.NewCampaign(benchConfig(bc.workers, bc.telemetry)).Run()
			}
			b.ReportMetric(float64(res.TotalDifferences()), "differences/op")
		})
	}
}

// BenchmarkFuzzThroughput measures the coverage-guided sequence fuzzing
// engine in executions per second, serial and sharded over GOMAXPROCS
// workers. The deterministic batch merge keeps the discovered differences
// identical across variants; only wall-clock changes. The telemetry=on
// variants quantify the overhead of full metric collection (<3% contract,
// see EXPERIMENTS.md).
func BenchmarkFuzzThroughput(b *testing.B) {
	for _, bc := range []struct {
		name      string
		workers   int
		telemetry bool
	}{
		{"workers=1", 1, false},
		{"workers=1/telemetry=on", 1, true},
		{fmt.Sprintf("workers=gomaxprocs(%d)", runtime.GOMAXPROCS(0)), 0, false},
		{fmt.Sprintf("workers=gomaxprocs(%d)/telemetry=on", runtime.GOMAXPROCS(0)), 0, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const budget = 256
			var last *fuzzer.Result
			for i := 0; i < b.N; i++ {
				opts := fuzzer.Options{Seed: 2022, Budget: budget, Workers: bc.workers}
				if bc.telemetry {
					opts.Metrics = telemetry.NewRegistry()
				}
				res, err := fuzzer.Run(opts)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(budget)*float64(b.N)/b.Elapsed().Seconds(), "execs/s")
			b.ReportMetric(float64(len(last.Differences)), "differences/op")
		})
	}
}

// BenchmarkTable3DefectFamilies regenerates Table 3: difference causes
// deduplicated into the six defect families.
func BenchmarkTable3DefectFamilies(b *testing.B) {
	res := setupCampaign(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Table3(res)
	}
	b.StopTimer()
	b.Logf("\n%s", out)
}

// BenchmarkFig5PathsPerInstruction regenerates Figure 5: the
// paths-per-instruction distribution per instruction kind.
func BenchmarkFig5PathsPerInstruction(b *testing.B) {
	res := setupCampaign(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Figure5(res)
	}
	b.StopTimer()
	b.Logf("\n%s", out)
}

// BenchmarkFig6ConcolicTime regenerates Figure 6: concolic exploration
// time per instruction kind. The timed loop explores a representative
// instruction pair so the benchmark measures exploration itself.
func BenchmarkFig6ConcolicTime(b *testing.B) {
	prims := primitives.NewTable()
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	bcTarget := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	nmTarget := concolic.NativeMethodTarget(primitives.PrimIdxBitShift, "primitiveBitShift", 1)
	res := setupCampaign(b)
	for i := 0; i < b.N; i++ {
		explorer.Explore(bcTarget)
		explorer.Explore(nmTarget)
	}
	b.StopTimer()
	b.Logf("\n%s", report.Figure6(res))
}

// BenchmarkFig7TestTime regenerates Figure 7: differential test execution
// time per instruction per compiler. The timed loop measures one
// differential test end to end.
func BenchmarkFig7TestTime(b *testing.B) {
	prims := primitives.NewTable()
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	ex := explorer.Explore(target)
	cfg := core.DefaultConfig()
	tester := core.NewTester(prims, cfg.Defects)
	res := setupCampaign(b)
	for i := 0; i < b.N; i++ {
		for _, p := range ex.Paths {
			for _, isa := range cfg.ISAs {
				tester.TestPath(target, ex, p, core.StackToRegisterCompiler, isa)
			}
		}
	}
	b.StopTimer()
	b.Logf("\n%s", report.Figure7(res))
}

// randomBaselinePaths is the black-box baseline of the ablation: throw
// random concrete frames at the interpreter and count the distinct
// behaviours (exit conditions + selectors) it exhibits.
func randomBaselinePaths(target concolic.Target, prims *primitives.Table, tries int, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	for i := 0; i < tries; i++ {
		om := heap.NewBootedObjectMemory()
		randVal := func() interp.Value {
			switch rng.Intn(5) {
			case 0:
				return interp.Concrete(heap.SmallIntFor(int64(rng.Intn(200) - 100)))
			case 1:
				f, _ := om.NewFloat(rng.Float64() * 10)
				return interp.Concrete(f)
			case 2:
				return interp.Concrete(om.NilObj)
			case 3:
				o := om.MustAllocate(heap.ClassIndexObject, heap.FormatFixed, rng.Intn(3))
				return interp.Concrete(o)
			default:
				return interp.Concrete(om.BoolObject(rng.Intn(2) == 0))
			}
		}
		var stack, temps []interp.Value
		for j := 0; j < rng.Intn(4); j++ {
			stack = append(stack, randVal())
		}
		nt := 0
		if target.Kind == concolic.TargetBytecode {
			nt = target.Method.TempCount()
		} else {
			nt = target.PrimNumArgs
		}
		for j := 0; j < nt; j++ {
			temps = append(temps, randVal())
		}
		frame := interp.NewFrame(randVal(), temps, stack)
		ctx := interp.NewCtx(om, frame, target.Method)
		ctx.Primitives = prims
		var exit interp.Exit
		if target.Kind == concolic.TargetBytecode {
			exit = interp.RunInstruction(ctx)
		} else {
			exit = interp.RunPrimitive(ctx, prims, target.PrimIndex)
		}
		seen[fmt.Sprintf("%s/%s/%d", exit.Kind, exit.Selector, exit.FailCode)] = true
	}
	return len(seen)
}

// BenchmarkAblationRandomVsConcolic compares black-box random testing
// against interpreter-guided concolic exploration on path coverage
// (DESIGN.md design decision 1: the single-source interpreter makes the
// exhaustive exploration possible).
func BenchmarkAblationRandomVsConcolic(b *testing.B) {
	prims := primitives.NewTable()
	target := concolic.NativeMethodTarget(primitives.PrimIdxBitShift, "primitiveBitShift", 1)
	var concolicPaths, randomPaths int
	for i := 0; i < b.N; i++ {
		explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
		ex := explorer.Explore(target)
		concolicPaths = len(ex.Paths)
		randomPaths = randomBaselinePaths(target, prims, ex.Iterations, int64(i))
	}
	b.StopTimer()
	b.Logf("primitiveBitShift: concolic found %d paths; random testing with the same execution budget found %d distinct behaviours",
		concolicPaths, randomPaths)
}

// BenchmarkAblationExplorationCache quantifies reusing cached concolic
// explorations across compilers (§5.4: "the results of the concolic
// exploration can be cached and reused multiple times").
func BenchmarkAblationExplorationCache(b *testing.B) {
	prims := primitives.NewTable()
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	cached := explorer.Explore(target)
	cfg := core.DefaultConfig()
	tester := core.NewTester(prims, cfg.Defects)

	b.Run("cached-exploration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range cached.Paths {
				tester.TestPath(target, cached, p, core.StackToRegisterCompiler, cfg.ISAs[0])
			}
		}
	})
	b.Run("fresh-exploration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ex := explorer.Explore(target)
			for _, p := range ex.Paths {
				tester.TestPath(target, ex, p, core.StackToRegisterCompiler, cfg.ISAs[0])
			}
		}
	})
}

// BenchmarkAblationCompilerCodeQuality compares the code the three
// byte-code tiers emit for the same instruction (the optimisation ladder
// of §4.1): the simulation stack and the linear-scan allocator shrink the
// emitted machine code.
func BenchmarkAblationCompilerCodeQuality(b *testing.B) {
	prims := primitives.NewTable()
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	ex := explorer.Explore(target)
	cfg := core.DefaultConfig()
	tester := core.NewTester(prims, cfg.Defects)

	kinds := []core.CompilerKind{core.SimpleBytecodeCompiler, core.StackToRegisterCompiler, core.RegisterAllocatingCompiler}
	sizes := make(map[core.CompilerKind]int)
	steps := make(map[core.CompilerKind]int)
	for i := 0; i < b.N; i++ {
		for _, kind := range kinds {
			for _, p := range ex.Paths {
				v := tester.TestPath(target, ex, p, kind, cfg.ISAs[0])
				if v.Observed != nil {
					sizes[kind] += v.Observed.CodeBytes
					steps[kind] += v.Observed.Steps
				}
			}
		}
	}
	b.StopTimer()
	for _, kind := range kinds {
		b.Logf("%-35s total code bytes=%d, executed steps=%d", kind, sizes[kind]/b.N, steps[kind]/b.N)
	}
}
