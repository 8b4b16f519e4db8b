package jit

import (
	"testing"

	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/interp"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
)

// nativeDivisionEdgeValues mirrors the core-level division edge grid:
// zero divisors, the MinSmallInt/-1 overflow pair, mixed signs and the
// small-integer range extremes.
var nativeDivisionEdgeValues = []int64{
	heap.MinSmallInt, heap.MinSmallInt + 1,
	-7, -2, -1, 0, 1, 2, 7,
	heap.MaxSmallInt - 1, heap.MaxSmallInt,
}

func runInterpDivision(om *heap.ObjectMemory, tbl *primitives.Table, idx int, a, b int64) interp.Exit {
	f := interp.NewFrame(interp.Concrete(heap.SmallIntFor(a)), []interp.Value{interp.Concrete(heap.SmallIntFor(b))}, nil)
	ctx := interp.NewCtx(om, f, nil)
	return interp.RunPrimitive(ctx, tbl, idx)
}

// TestNativeDivisionTemplatesMatchInterpreter runs the native templates of
// all four division primitives over the edge grid on both ISAs and checks
// each outcome against the interpreter primitive: where the interpreter
// succeeds the template must return the same tagged value; where the
// interpreter fails its operand checks (zero divisor, inexact /,
// MinSmallInt negation overflow) the template must fall through to the
// send path — never return a wrong value or crash the machine.
func TestNativeDivisionTemplatesMatchInterpreter(t *testing.T) {
	prims := primitives.NewTable()
	indices := []struct {
		idx  int
		name string
	}{
		{primitives.PrimIdxDivide, "divide"},
		{primitives.PrimIdxDiv, "div"},
		{primitives.PrimIdxMod, "mod"},
		{primitives.PrimIdxQuo, "quo"},
	}
	for _, isa := range []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like} {
		for _, p := range indices {
			om := heap.NewBootedObjectMemory()
			st, err := NewNativeMethodCompiler(om, defects.ProductionVM()).CompileNativeMethod(prims.Lookup(p.idx))
			if err != nil {
				t.Fatalf("%v %s: compile: %v", isa, p.name, err)
			}
			cm, err := st.Lower(st.Final(), isa)
			if err != nil {
				t.Fatalf("%v %s: lower: %v", isa, p.name, err)
			}
			for _, a := range nativeDivisionEdgeValues {
				for _, b := range nativeDivisionEdgeValues {
					exit := runInterpDivision(om, prims, p.idx, a, b)
					cpu, _ := machine.New(om)
					cpu.Reset()
					cpu.Regs[machine.SP]--
					om.Mem.MustWrite(cpu.Regs[machine.SP], machine.SentinelReturn)
					cpu.Regs[machine.ReceiverResultReg] = heap.SmallIntFor(a)
					cpu.Regs[machine.Arg0Reg] = heap.SmallIntFor(b)
					cpu.Install(cm.Prog)
					stop := cpu.Run(10000)
					if exit.Kind == interp.ExitSuccess {
						if stop.Kind != machine.StopReturned {
							t.Errorf("%v %s %d,%d: interp returned %v but template stopped %v", isa, p.name, a, b, exit.Result.W, stop)
							continue
						}
						if got := cpu.Regs[machine.ReceiverResultReg]; got != exit.Result.W {
							t.Errorf("%v %s %d,%d: template result %v, interp %v", isa, p.name, a, b, got, exit.Result.W)
						}
					} else {
						if stop.Kind != machine.StopBreakpoint || stop.BreakID != BrkNativeFallthrough {
							t.Errorf("%v %s %d,%d: interp failed (%v) but template stopped %v", isa, p.name, a, b, exit.Kind, stop)
						}
					}
				}
			}
		}
	}
}
