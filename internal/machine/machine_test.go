package machine

import (
	"math"
	"math/rand"
	"testing"

	"cogdiff/internal/heap"
)

func newCPU(t *testing.T) *CPU {
	t.Helper()
	om := heap.NewBootedObjectMemory()
	c, err := New(om)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func assemble(t *testing.T, build func(a *Assembler)) *Program {
	t.Helper()
	a := NewAssembler(CodeBase)
	build(a)
	p, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runProg(t *testing.T, c *CPU, p *Program) *Stop {
	t.Helper()
	c.Install(p)
	return c.Run(10000)
}

func TestArithmeticAndHalt(t *testing.T) {
	c := newCPU(t)
	p := assemble(t, func(a *Assembler) {
		a.MovI(R0, 20)
		a.MovI(R1, 22)
		a.Bin(OpcAdd, R2, R0, R1)
		a.Emit(Instr{Op: OpcHlt})
	})
	stop := runProg(t, c, p)
	if stop.Kind != StopHalt {
		t.Fatalf("stop %v", stop)
	}
	if c.Regs[R2] != 42 {
		t.Fatalf("r2 = %d", c.Regs[R2])
	}
}

func TestPushPopAndStack(t *testing.T) {
	c := newCPU(t)
	p := assemble(t, func(a *Assembler) {
		a.MovI(R0, 7)
		a.Push(R0)
		a.MovI(R0, 9)
		a.Push(R0)
		a.Pop(R1)
		a.Emit(Instr{Op: OpcHlt})
	})
	stop := runProg(t, c, p)
	if stop.Kind != StopHalt || c.Regs[R1] != 9 {
		t.Fatalf("stop %v r1=%d", stop, c.Regs[R1])
	}
	slice, err := c.StackSlice(StackLimit)
	if err != nil {
		t.Fatal(err)
	}
	if len(slice) != 1 || slice[0] != 7 {
		t.Fatalf("stack %v", slice)
	}
}

func TestConditionalJumps(t *testing.T) {
	c := newCPU(t)
	p := assemble(t, func(a *Assembler) {
		a.MovI(R0, 5)
		a.CmpI(R0, 10)
		a.Jump(OpcJlt, "less")
		a.MovI(R1, 0)
		a.Emit(Instr{Op: OpcHlt})
		a.Label("less")
		a.MovI(R1, 1)
		a.Emit(Instr{Op: OpcHlt})
	})
	stop := runProg(t, c, p)
	if stop.Kind != StopHalt || c.Regs[R1] != 1 {
		t.Fatalf("jlt not taken: %v r1=%d", stop, c.Regs[R1])
	}
}

func TestSentinelReturn(t *testing.T) {
	c := newCPU(t)
	p := assemble(t, func(a *Assembler) {
		a.Ret()
	})
	c.Install(p)
	// Seed the sentinel return address like the harness does.
	if err := c.push(SentinelReturn); err != nil {
		t.Fatal(err)
	}
	stop := c.Run(100)
	if stop.Kind != StopReturned {
		t.Fatalf("stop %v", stop)
	}
}

func TestCallAndReturn(t *testing.T) {
	c := newCPU(t)
	p := assemble(t, func(a *Assembler) {
		a.Call(CodeBase + 3) // call the "callee" below
		a.MovI(R1, 99)
		a.Emit(Instr{Op: OpcHlt})
		// callee:
		a.MovI(R0, 42)
		a.Ret()
	})
	stop := runProg(t, c, p)
	if stop.Kind != StopHalt || c.Regs[R0] != 42 || c.Regs[R1] != 99 {
		t.Fatalf("call/ret: %v r0=%d r1=%d", stop, c.Regs[R0], c.Regs[R1])
	}
}

func TestTrampolineStops(t *testing.T) {
	c := newCPU(t)
	p := assemble(t, func(a *Assembler) {
		a.MovI(ClassSelectorReg, 3)
		a.Call(SendTrampoline)
	})
	stop := runProg(t, c, p)
	if stop.Kind != StopTrampoline || stop.TrampolineAddr != SendTrampoline {
		t.Fatalf("stop %v", stop)
	}
	if c.Regs[ClassSelectorReg] != 3 {
		t.Fatal("selector register lost")
	}
}

func TestBreakpoint(t *testing.T) {
	c := newCPU(t)
	p := assemble(t, func(a *Assembler) {
		a.Brk(17)
	})
	stop := runProg(t, c, p)
	if stop.Kind != StopBreakpoint || stop.BreakID != 17 {
		t.Fatalf("stop %v", stop)
	}
}

func TestMemoryFault(t *testing.T) {
	c := newCPU(t)
	p := assemble(t, func(a *Assembler) {
		a.MovI(R0, 0x999999)
		a.Load(R1, R0, 0)
	})
	stop := runProg(t, c, p)
	if stop.Kind != StopFault {
		t.Fatalf("stop %v", stop)
	}
}

func TestSimulationErrorDefect(t *testing.T) {
	c := newCPU(t)
	c.SimDefects.MissingSetters = map[Reg]bool{R1: true}
	p := assemble(t, func(a *Assembler) {
		a.MovI(R0, 0x999999)
		a.Load(R1, R0, 0)
	})
	stop := runProg(t, c, p)
	if stop.Kind != StopSimulationError {
		t.Fatalf("stop %v", stop)
	}
}

func TestDivisionByZeroFaults(t *testing.T) {
	c := newCPU(t)
	p := assemble(t, func(a *Assembler) {
		a.MovI(R0, 10)
		a.MovI(R1, 0)
		a.Bin(OpcDiv, R2, R0, R1)
	})
	stop := runProg(t, c, p)
	if stop.Kind != StopFault {
		t.Fatalf("stop %v", stop)
	}
}

func TestStepLimit(t *testing.T) {
	c := newCPU(t)
	p := assemble(t, func(a *Assembler) {
		a.Label("loop")
		a.Jump(OpcJmp, "loop")
	})
	c.Install(p)
	stop := c.Run(50)
	if stop.Kind != StopStepLimit {
		t.Fatalf("stop %v", stop)
	}
}

func TestFloatOps(t *testing.T) {
	c := newCPU(t)
	p := assemble(t, func(a *Assembler) {
		a.MovI(R0, int64(math.Float64bits(1.5)))
		a.MovI(R1, int64(math.Float64bits(2.25)))
		a.Bin(OpcFAdd, R2, R0, R1)
		a.FCmp(R0, R1)
		a.Jump(OpcJlt, "less")
		a.MovI(R3, 0)
		a.Emit(Instr{Op: OpcHlt})
		a.Label("less")
		a.MovI(R3, 1)
		a.Emit(Instr{Op: OpcHlt})
	})
	stop := runProg(t, c, p)
	if stop.Kind != StopHalt {
		t.Fatalf("stop %v", stop)
	}
	if got := math.Float64frombits(uint64(c.Regs[R2])); got != 3.75 {
		t.Fatalf("fadd = %g", got)
	}
	if c.Regs[R3] != 1 {
		t.Fatal("fcmp branch wrong")
	}
}

func TestAllocFloat(t *testing.T) {
	om := heap.NewBootedObjectMemory()
	c, err := New(om)
	if err != nil {
		t.Fatal(err)
	}
	p := assemble(t, func(a *Assembler) {
		a.MovI(R0, int64(math.Float64bits(6.5)))
		a.Emit(Instr{Op: OpcAllocFloat, Rd: R1, Rs1: R0})
		a.Emit(Instr{Op: OpcHlt})
	})
	stop := runProg(t, c, p)
	if stop.Kind != StopHalt {
		t.Fatalf("stop %v", stop)
	}
	if !om.IsFloatObject(c.Regs[R1]) {
		t.Fatal("no float allocated")
	}
	if f, _ := om.FloatValueOf(c.Regs[R1]); f != 6.5 {
		t.Fatalf("boxed %g", f)
	}
}

func TestUndefinedLabelFails(t *testing.T) {
	a := NewAssembler(CodeBase)
	a.Jump(OpcJmp, "nowhere")
	if _, err := a.Finish(); err == nil {
		t.Fatal("undefined label must fail")
	}
}

// TestUndefinedLabelsResolveInEmissionOrder pins Finish's error to the
// first undefined label the program references, not whichever one a map
// iteration happened to reach first.
func TestUndefinedLabelsResolveInEmissionOrder(t *testing.T) {
	for i := 0; i < 50; i++ {
		a := NewAssembler(CodeBase)
		a.Jump(OpcJmp, "first")
		a.Label("ok").Jump(OpcJeq, "ok")
		a.Jump(OpcJne, "second")
		_, err := a.Finish()
		if err == nil || err.Error() != `asm: undefined label "first"` {
			t.Fatalf("run %d: got %v, want the first undefined label in emission order", i, err)
		}
	}
}

func TestDuplicateLabelFails(t *testing.T) {
	a := NewAssembler(CodeBase)
	a.Label("x").Label("x")
	if _, err := a.Finish(); err == nil {
		t.Fatal("duplicate label must fail")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, isa := range []ISA{ISAAmd64Like, ISAArm32Like} {
		var instrs []Instr
		for i := 0; i < 200; i++ {
			op := Opc(rng.Intn(int(NumOpcs)))
			ins := Instr{
				Op:  op,
				Rd:  Reg(rng.Intn(int(NumRegs))),
				Rs1: Reg(rng.Intn(int(NumRegs))),
				Rs2: Reg(rng.Intn(int(NumRegs))),
			}
			if needsImm(op) {
				ins.Imm = int64(int32(rng.Uint32()))
			}
			instrs = append(instrs, ins)
		}
		p := &Program{Base: CodeBase, Instrs: instrs}
		code, err := Encode(p, isa)
		if err != nil {
			t.Fatalf("%v: %v", isa, err)
		}
		back, err := Decode(code, CodeBase, isa)
		if err != nil {
			t.Fatalf("%v: %v", isa, err)
		}
		if len(back.Instrs) != len(instrs) {
			t.Fatalf("%v: %d decoded of %d", isa, len(back.Instrs), len(instrs))
		}
		for i := range instrs {
			if back.Instrs[i] != instrs[i] {
				t.Fatalf("%v: instr %d: %v != %v", isa, i, back.Instrs[i], instrs[i])
			}
		}
	}
}

func TestEncodingSizesDiffer(t *testing.T) {
	p := assemble(t, func(a *Assembler) {
		a.MovI(R0, 5)
		a.MovR(R1, R0)
		a.Ret()
	})
	amd, err := Encode(p, ISAAmd64Like)
	if err != nil {
		t.Fatal(err)
	}
	arm, err := Encode(p, ISAArm32Like)
	if err != nil {
		t.Fatal(err)
	}
	if len(amd) >= len(arm) {
		t.Fatalf("variable encoding (%d bytes) should beat fixed (%d bytes) on small immediates", len(amd), len(arm))
	}
}

func TestArm32RejectsHugeImmediates(t *testing.T) {
	p := &Program{Base: CodeBase, Instrs: []Instr{{Op: OpcMovI, Rd: R0, Imm: 1 << 40}}}
	if _, err := Encode(p, ISAArm32Like); err == nil {
		t.Fatal("40-bit immediate must be unencodable on the fixed-width ISA")
	}
	if _, err := Encode(p, ISAAmd64Like); err != nil {
		t.Fatalf("variable-width ISA must accept it: %v", err)
	}
}

func TestDisassemble(t *testing.T) {
	p := assemble(t, func(a *Assembler) {
		a.MovI(R0, 5)
		a.Load(R1, R0, 2)
		a.Store(R0, 1, R1)
		a.Brk(3)
	})
	out := p.Disassemble()
	for _, want := range []string{"movi r0, 5", "load r1, [r0+2]", "store [r0+1], r1", "brk 3"} {
		if !contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
