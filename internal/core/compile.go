package core

import (
	"fmt"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/heap"
	"cogdiff/internal/interp"
	"cogdiff/internal/ir"
	"cogdiff/internal/jit"
	"cogdiff/internal/metacompile"
)

// optimize compiles a byte-code body with the compiler's front-end and
// pass pipeline, once for every ISA: the whole method when wholeMethod is
// set (sequence testing), else the single instruction over inputStack.
// Compile-time constants resolve against om, so the returned stages
// record the literal boxes the front-end allocated there. onIR, when
// non-nil, observes the post-pipeline IR stream.
func (t *Tester) optimize(om *heap.ObjectMemory, wholeMethod bool, kind CompilerKind, method *bytecode.Method, inputStack []heap.Word, onIR func(ir.Opc)) (*jit.Stages, error) {
	if kind == MetaJITCompiler {
		mc := metacompile.NewCompiler(om, t.Defects)
		mc.Metrics = t.passMetrics
		mc.OnIR = onIR
		mc.NoVerify = t.noVerify
		if wholeMethod {
			return mc.CompileMethod(method, nil)
		}
		return mc.CompileBytecode(method, inputStack)
	}
	cogit := jit.NewCogit(variantOf(kind), om, t.Defects)
	cogit.Metrics = t.passMetrics
	cogit.OnIR = onIR
	cogit.NoVerify = t.noVerify
	if wholeMethod {
		return cogit.CompileMethod(method, nil)
	}
	return cogit.CompileBytecode(method, inputStack)
}

// optimizeUnit compiles target's single-instruction unit under kind on
// om, whose input frame for the path is already built: a native
// template, or the instruction over the frame's operand stack.
func (t *Tester) optimizeUnit(om *heap.ObjectMemory, target concolic.Target, kind CompilerKind, frame *interp.Frame) (*jit.Stages, error) {
	if kind == NativeMethodCompilerKind {
		return t.optimizeNative(om, target.PrimIndex)
	}
	inputStack := make([]heap.Word, frame.Size())
	for i, v := range frame.Stack {
		inputStack[i] = v.W
	}
	return t.optimize(om, false, kind, target.Method, inputStack, nil)
}

// optimizeNative compiles a native-method template through the same
// Backend with an empty pipeline.
func (t *Tester) optimizeNative(om *heap.ObjectMemory, primIndex int) (*jit.Stages, error) {
	prim := t.Prims.Lookup(primIndex)
	if prim == nil {
		return nil, fmt.Errorf("%w: unknown primitive %d", jit.ErrNotCompilable, primIndex)
	}
	nc := jit.NewNativeMethodCompiler(om, t.Defects)
	nc.Metrics = t.passMetrics
	nc.NoVerify = t.noVerify
	return nc.CompileNativeMethod(prim)
}

func variantOf(kind CompilerKind) jit.Variant {
	switch kind {
	case SimpleBytecodeCompiler:
		return jit.SimpleStackBasedCogit
	case RegisterAllocatingCompiler:
		return jit.RegisterAllocatingCogit
	case MetaJITCompiler:
		return jit.MetaJITCogit
	default:
		return jit.StackToRegisterCogit
	}
}
