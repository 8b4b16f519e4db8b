package jit

import (
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
)

func compileBC(t *testing.T, v Variant, isa machine.ISA, op bytecode.Op, stack []heap.Word, sw defects.Switches) (*CompiledMethod, *heap.ObjectMemory) {
	t.Helper()
	om := heap.NewBootedObjectMemory()
	m := &bytecode.Method{Name: "t", Code: []byte{byte(op)}}
	cogit := NewCogit(v, om, sw)
	st, err := cogit.CompileBytecode(m, stack)
	if err != nil {
		t.Fatalf("compile %v/%v: %v", v, op, err)
	}
	return mustLower(t, st, nil, isa), om
}

// mustLower lowers the optimized stage of a compilation that returned
// (st, err) for isa, failing the test on either step's error.
func mustLower(t *testing.T, st *Stages, err error, isa machine.ISA) *CompiledMethod {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	cm, err := st.Lower(st.Final(), isa)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// runBC executes a compiled byte-code test method with the standard frame.
func runBC(t *testing.T, om *heap.ObjectMemory, cm *CompiledMethod, receiver heap.Word, temps []heap.Word) (*machine.CPU, *machine.Stop) {
	t.Helper()
	cpu, err := machine.New(om)
	if err != nil {
		t.Fatal(err)
	}
	cpu.Reset()
	for _, w := range temps {
		cpu.Regs[machine.SP]--
		om.Mem.MustWrite(cpu.Regs[machine.SP], w)
	}
	cpu.Regs[machine.SP]--
	om.Mem.MustWrite(cpu.Regs[machine.SP], machine.SentinelReturn)
	cpu.Regs[machine.ReceiverResultReg] = receiver
	cpu.Install(cm.Prog)
	return cpu, cpu.Run(10000)
}

func operandStack(t *testing.T, cpu *machine.CPU) []heap.Word {
	t.Helper()
	raw, err := cpu.StackSlice(cpu.Regs[machine.FP])
	if err != nil {
		t.Fatal(err)
	}
	out := make([]heap.Word, len(raw))
	for i, w := range raw {
		out[len(raw)-1-i] = w // bottom first
	}
	return out
}

func allVariants() []Variant {
	return []Variant{SimpleStackBasedCogit, StackToRegisterCogit, RegisterAllocatingCogit}
}

func TestCompiledAddFastPath(t *testing.T) {
	for _, v := range allVariants() {
		for _, isa := range []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like} {
			cm, om := compileBC(t, v, isa, bytecode.OpPrimAdd,
				[]heap.Word{heap.SmallIntFor(3), heap.SmallIntFor(4)}, defects.ProductionVM())
			cpu, stop := runBC(t, om, cm, om.NilObj, nil)
			if stop.Kind != machine.StopBreakpoint || stop.BreakID != BrkEndFall {
				t.Fatalf("%v/%v: stop %v", v, isa, stop)
			}
			st := operandStack(t, cpu)
			if len(st) != 1 || st[0] != heap.SmallIntFor(7) {
				t.Fatalf("%v/%v: stack %v", v, isa, st)
			}
		}
	}
}

func TestCompiledAddOverflowTakesSend(t *testing.T) {
	for _, v := range allVariants() {
		cm, om := compileBC(t, v, machine.ISAAmd64Like, bytecode.OpPrimAdd,
			[]heap.Word{heap.SmallIntFor(heap.MaxSmallInt), heap.SmallIntFor(1)}, defects.ProductionVM())
		cpu, stop := runBC(t, om, cm, om.NilObj, nil)
		if stop.Kind != machine.StopTrampoline {
			t.Fatalf("%v: stop %v", v, stop)
		}
		sel, ok := cm.SelectorAt(int64(cpu.Regs[machine.ClassSelectorReg]))
		if !ok || sel.Name != "+" || sel.NumArgs != 1 {
			t.Fatalf("%v: selector %v %v", v, sel, ok)
		}
		// The operands must be restored on the stack for the send
		// (skipping the trampoline return address at the top).
		raw, _ := cpu.StackSlice(cpu.Regs[machine.FP])
		if len(raw) != 3 { // retaddr + two operands
			t.Fatalf("%v: send frame %v", v, raw)
		}
	}
}

func TestCompiledComparisonPushesBool(t *testing.T) {
	cm, om := compileBC(t, StackToRegisterCogit, machine.ISAAmd64Like, bytecode.OpPrimLessThan,
		[]heap.Word{heap.SmallIntFor(-5), heap.SmallIntFor(3)}, defects.ProductionVM())
	cpu, stop := runBC(t, om, cm, om.NilObj, nil)
	if stop.Kind != machine.StopBreakpoint || stop.BreakID != BrkEndFall {
		t.Fatalf("stop %v", stop)
	}
	st := operandStack(t, cpu)
	if len(st) != 1 || st[0] != om.TrueObj {
		t.Fatalf("-5 < 3 should push true: %v", st)
	}
}

func TestCompiledJumpTaken(t *testing.T) {
	cm, om := compileBC(t, StackToRegisterCogit, machine.ISAArm32Like, bytecode.OpShortJumpIfTrue1,
		[]heap.Word{0}, defects.ProductionVM())
	_ = cm
	// Rebuild with the true object (needs om first for its oop).
	m := &bytecode.Method{Name: "t", Code: []byte{byte(bytecode.OpShortJumpIfTrue1)}}
	cogit := NewCogit(StackToRegisterCogit, om, defects.ProductionVM())
	st, err := cogit.CompileBytecode(m, []heap.Word{om.TrueObj})
	cm2 := mustLower(t, st, err, machine.ISAArm32Like)
	_, stop := runBC(t, om, cm2, om.NilObj, nil)
	if stop.Kind != machine.StopBreakpoint || stop.BreakID != BrkJumpTaken {
		t.Fatalf("jump on true: %v", stop)
	}

	st, err = cogit.CompileBytecode(m, []heap.Word{om.FalseObj})
	cm3 := mustLower(t, st, err, machine.ISAArm32Like)
	_, stop = runBC(t, om, cm3, om.NilObj, nil)
	if stop.Kind != machine.StopBreakpoint || stop.BreakID != BrkEndFall {
		t.Fatalf("fall through on false: %v", stop)
	}
}

func TestCompiledReturnTop(t *testing.T) {
	cm, om := compileBC(t, RegisterAllocatingCogit, machine.ISAAmd64Like, bytecode.OpReturnTop,
		[]heap.Word{heap.SmallIntFor(9)}, defects.ProductionVM())
	cpu, stop := runBC(t, om, cm, om.NilObj, nil)
	if stop.Kind != machine.StopReturned {
		t.Fatalf("stop %v", stop)
	}
	if cpu.Regs[machine.ReceiverResultReg] != heap.SmallIntFor(9) {
		t.Fatalf("result %v", cpu.Regs[machine.ReceiverResultReg])
	}
}

func TestCompiledTempAccess(t *testing.T) {
	om := heap.NewBootedObjectMemory()
	m := &bytecode.Method{Name: "t", NumArgs: 2, Code: []byte{byte(bytecode.OpPushTemporaryVariable0 + 1)}}
	for _, v := range allVariants() {
		st, err := NewCogit(v, om, defects.ProductionVM()).CompileBytecode(m, nil)
		cm := mustLower(t, st, err, machine.ISAAmd64Like)
		cpu, stop := runBC(t, om, cm, om.NilObj, []heap.Word{heap.SmallIntFor(10), heap.SmallIntFor(20)})
		if stop.Kind != machine.StopBreakpoint {
			t.Fatalf("%v: stop %v", v, stop)
		}
		stack := operandStack(t, cpu)
		if len(stack) != 1 || stack[0] != heap.SmallIntFor(20) {
			t.Fatalf("%v: pushTemp1 gave %v", v, stack)
		}
	}
}

func TestSimpleVsStackToRegisterCodeShape(t *testing.T) {
	// The parse-time simulation stack must eliminate machine stack traffic:
	// push constant + pop compiles to nothing but the frame skeleton.
	om := heap.NewBootedObjectMemory()
	m := &bytecode.Method{Name: "t", Code: []byte{byte(bytecode.OpPopStackTop)}}
	input := []heap.Word{heap.SmallIntFor(1)}

	st, err := NewCogit(SimpleStackBasedCogit, om, defects.Switches{}).CompileBytecode(m, input)
	simple := mustLower(t, st, err, machine.ISAAmd64Like)
	st, err = NewCogit(StackToRegisterCogit, om, defects.Switches{}).CompileBytecode(m, input)
	s2r := mustLower(t, st, err, machine.ISAAmd64Like)
	if s2r.Prog.Len() >= simple.Prog.Len() {
		t.Fatalf("stack-to-register (%d instrs) should beat simple (%d instrs)",
			s2r.Prog.Len(), simple.Prog.Len())
	}
}

func TestVariantsProduceDifferentRegisterAssignments(t *testing.T) {
	om := heap.NewBootedObjectMemory()
	m := &bytecode.Method{Name: "t", Code: []byte{byte(bytecode.OpPrimAdd)}}
	input := []heap.Word{heap.SmallIntFor(1), heap.SmallIntFor(2)}
	st, err := NewCogit(StackToRegisterCogit, om, defects.Switches{}).CompileBytecode(m, input)
	s2r := mustLower(t, st, err, machine.ISAAmd64Like)
	st, err = NewCogit(RegisterAllocatingCogit, om, defects.Switches{}).CompileBytecode(m, input)
	ra := mustLower(t, st, err, machine.ISAAmd64Like)
	if s2r.Prog.Disassemble() == ra.Prog.Disassemble() {
		t.Fatal("linear-scan allocation should assign registers differently")
	}
}

func TestISAsEncodeDifferently(t *testing.T) {
	om := heap.NewBootedObjectMemory()
	m := &bytecode.Method{Name: "t", Code: []byte{byte(bytecode.OpPrimAdd)}}
	input := []heap.Word{heap.SmallIntFor(1), heap.SmallIntFor(2)}
	// One optimization, lowered for both ISAs.
	st, err := NewCogit(StackToRegisterCogit, om, defects.Switches{}).CompileBytecode(m, input)
	amd := mustLower(t, st, err, machine.ISAAmd64Like)
	arm := mustLower(t, st, nil, machine.ISAArm32Like)
	if len(amd.Code) == len(arm.Code) {
		t.Fatalf("encodings should differ in size: %d vs %d", len(amd.Code), len(arm.Code))
	}
	// The ARM-like backend materializes large immediates separately.
	if arm.Prog.Len() <= amd.Prog.Len() {
		t.Fatalf("fixed-width backend should need more instructions: %d vs %d", arm.Prog.Len(), amd.Prog.Len())
	}
}

func TestPushThisContextNotCompilable(t *testing.T) {
	om := heap.NewBootedObjectMemory()
	m := &bytecode.Method{Name: "t", Code: []byte{byte(bytecode.OpPushThisContext)}}
	_, err := NewCogit(StackToRegisterCogit, om, defects.Switches{}).CompileBytecode(m, nil)
	if err == nil {
		t.Fatal("pushThisContext must not compile")
	}
}

func TestNativeTemplateAdd(t *testing.T) {
	om := heap.NewBootedObjectMemory()
	prims := primitives.NewTable()
	st, err := NewNativeMethodCompiler(om, defects.ProductionVM()).CompileNativeMethod(prims.Lookup(primitives.PrimIdxAdd))
	cm := mustLower(t, st, err, machine.ISAAmd64Like)
	cpu, _ := machine.New(om)
	cpu.Reset()
	cpu.Regs[machine.SP]--
	om.Mem.MustWrite(cpu.Regs[machine.SP], machine.SentinelReturn)
	cpu.Regs[machine.ReceiverResultReg] = heap.SmallIntFor(20)
	cpu.Regs[machine.Arg0Reg] = heap.SmallIntFor(22)
	cpu.Install(cm.Prog)
	stop := cpu.Run(1000)
	if stop.Kind != machine.StopReturned || cpu.Regs[machine.ReceiverResultReg] != heap.SmallIntFor(42) {
		t.Fatalf("stop %v result %v", stop, cpu.Regs[machine.ReceiverResultReg])
	}
}

func TestNativeTemplateFailsOnBadReceiver(t *testing.T) {
	om := heap.NewBootedObjectMemory()
	prims := primitives.NewTable()
	st, err := NewNativeMethodCompiler(om, defects.ProductionVM()).CompileNativeMethod(prims.Lookup(primitives.PrimIdxAdd))
	cm := mustLower(t, st, err, machine.ISAArm32Like)
	cpu, _ := machine.New(om)
	cpu.Reset()
	cpu.Regs[machine.ReceiverResultReg] = om.NilObj
	cpu.Regs[machine.Arg0Reg] = heap.SmallIntFor(1)
	cpu.Install(cm.Prog)
	stop := cpu.Run(1000)
	if stop.Kind != machine.StopBreakpoint || stop.BreakID != BrkNativeFallthrough {
		t.Fatalf("stop %v", stop)
	}
}

func TestNativeMissingFunctionalityStub(t *testing.T) {
	om := heap.NewBootedObjectMemory()
	prims := primitives.NewTable()
	var ffi *primitives.Primitive
	for _, p := range prims.All() {
		if p.Category == primitives.CatFFI {
			ffi = p
			break
		}
	}
	st, err := NewNativeMethodCompiler(om, defects.ProductionVM()).CompileNativeMethod(ffi)
	cm := mustLower(t, st, err, machine.ISAAmd64Like)
	cpu, _ := machine.New(om)
	cpu.Install(cm.Prog)
	stop := cpu.Run(10)
	if stop.Kind != machine.StopBreakpoint || stop.BreakID != BrkNotImplemented {
		t.Fatalf("stub should raise not-implemented: %v", stop)
	}
}

func TestAllNativeTemplatesCompile(t *testing.T) {
	om := heap.NewBootedObjectMemory()
	prims := primitives.NewTable()
	for _, sw := range []defects.Switches{defects.ProductionVM(), defects.Pristine()} {
		nc := NewNativeMethodCompiler(om, sw)
		for _, p := range prims.All() {
			st, err := nc.CompileNativeMethod(p)
			if err != nil {
				t.Errorf("%s (defects=%v): %v", p.Name, sw.FFIMissingInJIT, err)
				continue
			}
			for _, isa := range []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like} {
				if _, err := st.Lower(st.Final(), isa); err != nil {
					t.Errorf("%s on %v (defects=%v): %v", p.Name, isa, sw.FFIMissingInJIT, err)
				}
			}
		}
	}
}

func TestAllBytecodesCompileOrAreCurated(t *testing.T) {
	om := heap.NewBootedObjectMemory()
	for _, v := range allVariants() {
		cogit := NewCogit(v, om, defects.ProductionVM())
		for _, op := range bytecode.AllOpcodes() {
			d := bytecode.Describe(op)
			if d.Family == bytecode.FamCallPrimitive {
				continue
			}
			m := &bytecode.Method{Name: d.Mnemonic, NumTemps: 12, Code: []byte{byte(op)}}
			for i := 0; i < d.OperandBytes; i++ {
				m.Code = append(m.Code, 0)
			}
			for i := 0; i < 16; i++ {
				m.Literals = append(m.Literals, bytecode.SelectorLiteral("s"))
			}
			// Three input cells cover every instruction's operand needs.
			input := []heap.Word{heap.SmallIntFor(1), heap.SmallIntFor(2), heap.SmallIntFor(3)}
			st, err := cogit.CompileBytecode(m, input)
			if err == nil {
				_, err = st.Lower(st.Final(), machine.ISAAmd64Like)
			}
			if err != nil && d.Family != bytecode.FamPushThisContext {
				t.Errorf("%v: %s does not compile: %v", v, d.Mnemonic, err)
			}
		}
	}
}

func TestTempOffset(t *testing.T) {
	// temp0 is pushed first and therefore deepest: highest FP offset.
	if TempOffset(0, 3) != 4 || TempOffset(2, 3) != 2 {
		t.Fatalf("TempOffset wrong: %d %d", TempOffset(0, 3), TempOffset(2, 3))
	}
}
