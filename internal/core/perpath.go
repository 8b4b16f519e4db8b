package core

import (
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
)

// MeasurePerPathAllocs reports the average Go allocations per path test
// of a representative explored unit (OpPrimAdd: float and integer paths,
// differing and agreeing verdicts). With noReuse false it measures the
// steady state of one UnitRun — pooled environments and a shared
// interpreter reference. With noReuse true it measures the reuse-free
// reference: every call boots fresh heaps and recomputes the reference.
// bench-export records both as a trajectory.
//
// This is a measurement entry point, not a test helper: it lives in the
// package proper so the CLI can re-measure on the machine at hand
// instead of trusting numbers committed from another one.
func MeasurePerPathAllocs(noReuse bool) float64 {
	return measurePerPathAllocs(noReuse, noReuse)
}

// measurePerPathAllocs measures one reuse configuration: noReuse boots a
// fresh environment per execution, and oneShot goes through the one-shot
// Tester.TestPath wrapper, which recomputes the interpreter reference on
// every call instead of sharing it across the path's ISAs.
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
