package core

import (
	"reflect"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
)

// The watermark invariant of optimize-once-lower-per-ISA: a front-end
// that boxes literals at compile time bakes their addresses into the IR,
// so every ISA's execution of the shared stages must find the boxes at
// those addresses. These tests cover both front-end families that
// allocate while compiling, and the error a mismatched heap must raise.

// floatSeedMethod is the fuzzer's built-in seed `^0.5 < 3.25`: its two
// float literals are boxed by the front-end while compiling.
func floatSeedMethod() *bytecode.Method {
	return &bytecode.Method{
		Name:     "floatSeed",
		Literals: []bytecode.Literal{bytecode.FloatLiteral(0.5), bytecode.FloatLiteral(3.25)},
		Code: []byte{
			byte(bytecode.OpPushLiteralConstant0),
			byte(bytecode.OpPushLiteralConstant0 + 1),
			byte(bytecode.OpPrimLessThan),
			byte(bytecode.OpReturnTop),
		},
	}
}

func TestSharedStagesReplayLiteralBoxesAcrossISAs(t *testing.T) {
	tester := NewTester(primitives.NewTable(), defects.ProductionVM())
	m := floatSeedMethod()
	in := SequenceInput{Receiver: Int64(2)}
	// The compiled code sends #< with both literals on the stack, so the
	// outcome renders the boxes the replay put in place. Render the
	// literals on a heap of their own for comparison.
	om := heap.NewBootedObjectMemory()
	var literals []string
	for _, lit := range m.Literals {
		w, err := om.NewFloat(lit.Float)
		if err != nil {
			t.Fatal(err)
		}
		literals = append(literals, Canonicalize(om, w, nil))
	}
	for _, kind := range bytecodeKinds {
		st, err := tester.OptimizeSequence(m, in, kind, nil)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(st.Heap) == 0 {
			t.Fatalf("%s: the front-end allocated no literal boxes; the test lost its subject", kind)
		}
		amd, err := tester.CompiledSequence(st, st.Final(), m, in, machine.ISAAmd64Like, nil)
		if err != nil {
			t.Fatalf("%s amd64-like: %v", kind, err)
		}
		arm, err := tester.CompiledSequence(st, st.Final(), m, in, machine.ISAArm32Like, nil)
		if err != nil {
			t.Fatalf("%s arm32-like: %v", kind, err)
		}
		if !reflect.DeepEqual(amd, arm) {
			t.Errorf("%s: ISAs disagree through shared stages: amd64-like %s, arm32-like %s", kind, amd, arm)
		}
		if amd.Kind != "send" || !reflect.DeepEqual(amd.Stack, literals) {
			t.Errorf("%s: outcome %s, want a send over the literal boxes %v", kind, amd, literals)
		}
	}
}

// TestMetaJITSharedStagesReplayFloatBox covers the meta-compiled
// front-end: pushing a float literal lowers to a float box baked at
// compile time, and both ISAs of a unit lower the one optimization.
func TestMetaJITSharedStagesReplayFloatBox(t *testing.T) {
	prims := primitives.NewTable()
	tester := NewTester(prims, defects.ProductionVM())
	target := concolic.BytecodeTarget(bytecode.OpPushLiteralConstant0)
	target.Method.Literals[0] = bytecode.FloatLiteral(0.5)
	ex := concolic.NewExplorer(prims, concolic.DefaultOptions()).Explore(target)
	run := tester.BeginUnit(target, ex)
	defer run.Close()
	tested := 0
	for pi, path := range ex.Paths {
		amd := run.TestPath(path, MetaJITCompiler, machine.ISAAmd64Like)
		if amd.Skipped {
			continue
		}
		if len(run.st.Heap) == 0 {
			t.Fatalf("path %d: the lowering boxed no float; the test lost its subject", pi)
		}
		arm := run.TestPath(path, MetaJITCompiler, machine.ISAArm32Like)
		if amd.Differs || arm.Differs || arm.Skipped {
			t.Fatalf("path %d: amd64-like %+v, arm32-like %+v", pi, amd, arm)
		}
		if !reflect.DeepEqual(normalizeObs(amd.Observed), normalizeObs(arm.Observed)) {
			t.Errorf("path %d: ISAs disagree through shared stages:\n%+v\n%+v", pi, amd.Observed, arm.Observed)
		}
		tested++
	}
	if tested == 0 {
		t.Fatal("no metajit path was tested")
	}
}

// TestReplayAtWrongWatermarkFails pins that shared stages never land on
// a heap whose watermark differs from the one the front-end started at:
// the replay is an error, not a silent recompile.
func TestReplayAtWrongWatermarkFails(t *testing.T) {
	tester := NewTester(primitives.NewTable(), defects.ProductionVM())
	m := floatSeedMethod()
	st, err := tester.OptimizeSequence(m, SequenceInput{Receiver: Int64(2)}, StackToRegisterCompiler, nil)
	if err != nil {
		t.Fatal(err)
	}

	env := tester.getEnv()
	defer tester.putEnv(env)
	if _, err := env.om.NewFloat(1.5); err != nil {
		t.Fatal(err)
	}
	if env.om.HeapUsed() == st.HeapBase {
		t.Fatal("the extra allocation must move the watermark")
	}
	if err := st.Replay(env.om); err == nil {
		t.Fatal("replay at a different watermark must fail")
	}

	// End to end: a float receiver allocates while the input frame is
	// built, so the stages optimized over an integer receiver no longer
	// fit the rebuilt frame.
	if _, err := tester.CompiledSequence(st, st.Final(), m, SequenceInput{Receiver: Float64(1.5)}, machine.ISAAmd64Like, nil); err == nil {
		t.Fatal("running stages over a frame that moved the watermark must fail")
	}
}
