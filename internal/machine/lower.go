package machine

import (
	"fmt"

	"cogdiff/internal/ir"
)

// armImmLimit is the magnitude from which compare immediates no longer
// fit the fixed-width ISA's compare encoding and must be materialized
// through the scratch register.
const armImmLimit = 1 << 12

// lowerReg maps an IR register to a physical one: physical registers
// pass through, virtual registers index the variant's register pool. It
// reports false for a virtual register past the pool; the caller builds
// the error, which keeps lowerReg inlinable (it runs three times per
// lowered instruction).
func lowerReg(r ir.Reg, pool []Reg) (Reg, bool) {
	if !r.IsVirtual() {
		return Reg(r), true
	}
	if n := r.VirtualIndex(); n < len(pool) {
		return pool[n], true
	}
	return 0, false
}

// poolExceeded is the error for an instruction naming a virtual register
// past the pool: the first such one among rd, rs1 and rs2.
func poolExceeded(ins ir.Instr, pool []Reg) error {
	r := ins.Rd
	if _, ok := lowerReg(r, pool); ok {
		r = ins.Rs1
		if _, ok := lowerReg(r, pool); ok {
			r = ins.Rs2
		}
	}
	return fmt.Errorf("machine: virtual register v%d exceeds the %d-register pool", r.VirtualIndex(), len(pool))
}

// Lower assembles a post-pipeline IR function into a machine program for
// one ISA. It resolves labels, maps virtual registers onto pool, drops
// register moves that land on their own physical register (a virtual
// source can be pool-assigned to its destination), and on the
// fixed-width ISA materializes out-of-range compare immediates through
// the scratch register — the one lowering decision that makes the two
// back-ends emit differently shaped code for the same IR. Label
// references resolve in emission order, so an undefined label error
// names the first one the program uses.
func Lower(f *ir.Fn, isa ISA, base int64, pool []Reg) (*Program, error) {
	labels, jumps := 0, 0
	for _, ins := range f.Instrs {
		if ins.Op == ir.OpcLabel {
			labels++
		} else if ins.IsJump() {
			jumps++
		}
	}
	asm := newAssembler(base, len(f.Instrs), labels, jumps)
	for _, ins := range f.Instrs {
		if ins.Op == ir.OpcLabel {
			asm.Label(ins.Sym)
			continue
		}
		if ins.Op >= ir.NumMachineOpcs {
			return nil, fmt.Errorf("machine: cannot lower IR pseudo-op %s", ins.Op)
		}
		rd, ok1 := lowerReg(ins.Rd, pool)
		rs1, ok2 := lowerReg(ins.Rs1, pool)
		rs2, ok3 := lowerReg(ins.Rs2, pool)
		if !ok1 || !ok2 || !ok3 {
			return nil, poolExceeded(ins, pool)
		}
		m := Instr{Op: Opc(ins.Op), Rd: rd, Rs1: rs1, Rs2: rs2, Imm: ins.Imm}
		switch {
		case ins.IsJump():
			asm.EmitToLabel(m, ins.Sym)
		case m.Op == OpcMovR && m.Rd == m.Rs1:
			// The move's operands collapsed onto one physical register.
		case m.Op == OpcCmpI && isa == ISAArm32Like && (m.Imm >= armImmLimit || m.Imm <= -armImmLimit):
			asm.MovI(ScratchReg, m.Imm)
			asm.Cmp(m.Rs1, ScratchReg)
		default:
			asm.Emit(m)
		}
	}
	return asm.Finish()
}
