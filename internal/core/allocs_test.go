package core

// Allocation-regression gates on the per-path testing hot path. Testing
// one more path of an already explored unit borrows a pooled
// environment instead of booting a 64K-word heap, and shares the
// path's interpreter reference across its ISAs. These gates pin both
// reuse layers with testing.AllocsPerRun, so an accidental per-path
// boot or reference recomputation shows up as a test failure, not a
// silent slowdown. The bounds sit well clear of the measured values, so
// scheduler noise cannot flake CI.

import (
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
)

// measurePerPathAllocs reports the average Go allocations per path test
// of a representative explored unit (OpPrimAdd: float and integer paths,
// differing and agreeing verdicts) in one reuse configuration: noReuse
// boots a fresh environment per execution, and oneShot goes through the
// one-shot Tester.TestPath wrapper, which recomputes the interpreter
// reference on every call instead of sharing it across the path's ISAs.
// With both false it measures the steady state of one UnitRun.
func measurePerPathAllocs(noReuse, oneShot bool) float64 {
	prims := primitives.NewTable()
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	ex := explorer.Explore(target)
	tester := NewTester(prims, defects.ProductionVM())
	if noReuse {
		tester.SetNoReuse()
	}
	isas := []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like}
	run := tester.BeginUnit(target, ex)
	defer run.Close()
	testAll := func() {
		for _, p := range ex.Paths {
			for _, isa := range isas {
				if oneShot {
					tester.TestPath(target, ex, p, SimpleBytecodeCompiler, isa)
				} else {
					run.TestPath(p, SimpleBytecodeCompiler, isa)
				}
			}
		}
	}
	testAll() // warm the pools and the reference
	per := testing.AllocsPerRun(20, testAll)
	return per / float64(len(ex.Paths)*len(isas))
}

// TestPerPathAllocsWarm gates the steady-state cost: ~61 allocs/path
// at the time of writing (~77 under -race), most of them the per-path
// compile. The bound leaves room for noise, not for a reintroduced
// per-path environment boot (~122).
func TestPerPathAllocsWarm(t *testing.T) {
	if warm := measurePerPathAllocs(false, false); warm > 100 {
		t.Fatalf("warm per-path allocs = %.1f, want <= 100", warm)
	}
}

// TestPerPathAllocsReduction gates what each reuse layer saves against
// the same batched run without it: pooled environments ~60 allocs/path
// over booting one per execution, the shared interpreter reference ~29
// over recomputing it for every ISA.
func TestPerPathAllocsReduction(t *testing.T) {
	warm := measurePerPathAllocs(false, false)
	freshEnvs := measurePerPathAllocs(true, false)
	freshRefs := measurePerPathAllocs(false, true)
	t.Logf("per-path allocs: warm=%.1f fresh-envs=%.1f fresh-references=%.1f", warm, freshEnvs, freshRefs)
	if saved := freshEnvs - warm; saved < 30 {
		t.Errorf("pooled environments save %.1f allocs/path (warm=%.1f fresh-envs=%.1f), want >= 30", saved, warm, freshEnvs)
	}
	if saved := freshRefs - warm; saved < 3 {
		t.Errorf("the shared reference saves %.1f allocs/path (warm=%.1f fresh-references=%.1f), want >= 3", saved, warm, freshRefs)
	}
}

// BenchmarkUnitPathWarm is the per-path hot-path benchmark: one op = one
// TestPath on a warm UnitRun, averaged over every (path, ISA) of the
// unit.
func BenchmarkUnitPathWarm(b *testing.B) {
	prims := primitives.NewTable()
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	ex := explorer.Explore(target)
	tester := NewTester(prims, defects.ProductionVM())
	isas := []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like}
	run := tester.BeginUnit(target, ex)
	defer run.Close()
	for _, p := range ex.Paths {
		for _, isa := range isas {
			run.TestPath(p, SimpleBytecodeCompiler, isa)
		}
	}
	n := len(ex.Paths) * len(isas)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += n {
		for _, p := range ex.Paths {
			for _, isa := range isas {
				run.TestPath(p, SimpleBytecodeCompiler, isa)
			}
		}
	}
}
