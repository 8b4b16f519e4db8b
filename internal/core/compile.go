package core

import (
	"cogdiff/internal/bytecode"
	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
	"cogdiff/internal/jit"
	"cogdiff/internal/machine"
	"cogdiff/internal/metacompile"
	"cogdiff/internal/primitives"
)

// compileBytecode compiles a byte-code body with the variant's front-end:
// the whole method when wholeMethod is set (sequence testing), else the
// single instruction over inputStack. onIR, when non-nil, observes the
// post-pipeline IR stream.
func (t *Tester) compileBytecode(om *heap.ObjectMemory, wholeMethod bool, variant jit.Variant, isa machine.ISA, passLimit int, method *bytecode.Method, inputStack []heap.Word, onIR func(ir.Opc)) (*jit.CompiledMethod, error) {
	if variant == jit.MetaJITCogit {
		mc := metacompile.NewCompiler(isa, om, t.Defects)
		mc.PassLimit = passLimit
		mc.Metrics = t.passMetrics
		mc.OnIR = onIR
		mc.NoVerify = t.noVerify
		if wholeMethod {
			return mc.CompileMethod(method, nil)
		}
		return mc.CompileBytecode(method, inputStack)
	}
	cogit := jit.NewCogit(variant, isa, om, t.Defects)
	cogit.PassLimit = passLimit
	cogit.Metrics = t.passMetrics
	cogit.OnIR = onIR
	cogit.NoVerify = t.noVerify
	if wholeMethod {
		return cogit.CompileMethod(method, nil)
	}
	return cogit.CompileBytecode(method, inputStack)
}

// compileNative compiles a native-method template.
func (t *Tester) compileNative(om *heap.ObjectMemory, prim *primitives.Primitive, isa machine.ISA) (*jit.CompiledMethod, error) {
	nc := jit.NewNativeMethodCompiler(isa, om, t.Defects)
	nc.Metrics = t.passMetrics
	nc.NoVerify = t.noVerify
	return nc.CompileNativeMethod(prim)
}
