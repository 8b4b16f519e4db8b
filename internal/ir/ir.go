// Package ir defines the JIT's intermediate representation: a typed,
// label-based linear instruction list over physical and virtual
// registers. The compilation pipeline has three layers:
//
//	front-end (internal/jit)  parses byte-code or native-method
//	                          templates into an ir.Fn
//	passes (this package)     transform the Fn — each pass is a pure
//	                          func(*Fn) *Fn, deterministic and cheap
//	back-end (internal/machine.Lower)
//	                          maps virtual registers onto a physical
//	                          pool and assembles per-ISA machine code
//
// The opcode set mirrors the machine layer's one-to-one (same names,
// same order) plus one IR-only pseudo-instruction, OpcLabel, which keeps
// control flow symbolic until lowering. Keeping the sets aligned makes
// lowering a cast for ordinary instructions and keeps the differential
// tester's machine-level observations stable across the layers.
package ir

import (
	"fmt"
	"strings"
)

// Reg is an IR register: the machine's physical register file (the ABI
// set) in [0, NumPhysRegs), plus an open-ended space of virtual
// registers starting at vBase that the front-end allocators hand out and
// lowering maps onto a per-variant physical pool.
type Reg uint8

const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	SP
	FP
	NumPhysRegs
)

// ABI aliases, mirroring the machine layer's calling convention.
const (
	ReceiverResultReg = R0
	Arg0Reg           = R1
	Arg1Reg           = R2
	Arg2Reg           = R3
	TempReg           = R4
	ExtraReg          = R5
	ScratchReg        = R6
	ClassSelectorReg  = R7
)

// vBase is the first virtual register number.
const vBase = 16

// V returns the n-th virtual register.
func V(n int) Reg { return Reg(vBase + n) }

// IsVirtual reports whether r is a virtual register.
func (r Reg) IsVirtual() bool { return r >= vBase }

// VirtualIndex returns n for V(n); meaningless for physical registers.
func (r Reg) VirtualIndex() int { return int(r) - vBase }

func (r Reg) String() string {
	switch {
	case r == SP:
		return "sp"
	case r == FP:
		return "fp"
	case r.IsVirtual():
		return fmt.Sprintf("v%d", r.VirtualIndex())
	default:
		return fmt.Sprintf("r%d", r)
	}
}

// Opc is an IR opcode. The constants below NumMachineOpcs mirror the
// machine layer's opcode set name-for-name and value-for-value (the
// lowering cast and the cross-layer parity test depend on it); OpcLabel
// is the one IR-only pseudo-instruction.
type Opc uint8

const (
	OpcNop Opc = iota
	OpcMovR
	OpcMovI
	OpcLoad
	OpcStore
	OpcLoadX
	OpcStoreX
	OpcPush
	OpcPop
	OpcAdd
	OpcSub
	OpcMul
	OpcDiv
	OpcMod
	OpcAnd
	OpcOr
	OpcXor
	OpcShl
	OpcShr
	OpcSar
	OpcAddI
	OpcSubI
	OpcAndI
	OpcOrI
	OpcShlI
	OpcSarI
	OpcCmp
	OpcCmpI
	OpcJmp
	OpcJeq
	OpcJne
	OpcJlt
	OpcJle
	OpcJgt
	OpcJge
	OpcCall
	OpcCallR
	OpcRet
	OpcBrk
	OpcHlt
	OpcFAdd
	OpcFSub
	OpcFMul
	OpcFDiv
	OpcFCmp
	OpcI2F
	OpcF2I
	OpcFSqrt
	OpcF64To32
	OpcF32To64
	OpcFSin
	OpcFAtan
	OpcFLog
	OpcFExp
	OpcAllocFloat
	OpcAlloc
	NumMachineOpcs
)

// OpcLabel binds Sym to the next real instruction. Lowering turns it
// into an assembler label; it never reaches the machine layer.
const OpcLabel = NumMachineOpcs

var opcNames = map[Opc]string{
	OpcNop: "nop", OpcMovR: "mov", OpcMovI: "movi", OpcLoad: "load",
	OpcStore: "store", OpcLoadX: "loadx", OpcStoreX: "storex",
	OpcPush: "push", OpcPop: "pop",
	OpcAdd: "add", OpcSub: "sub", OpcMul: "mul", OpcDiv: "div", OpcMod: "mod",
	OpcAnd: "and", OpcOr: "or", OpcXor: "xor", OpcShl: "shl", OpcShr: "shr", OpcSar: "sar",
	OpcAddI: "addi", OpcSubI: "subi", OpcAndI: "andi", OpcOrI: "ori",
	OpcShlI: "shli", OpcSarI: "sari",
	OpcCmp: "cmp", OpcCmpI: "cmpi",
	OpcJmp: "jmp", OpcJeq: "jeq", OpcJne: "jne", OpcJlt: "jlt",
	OpcJle: "jle", OpcJgt: "jgt", OpcJge: "jge",
	OpcCall: "call", OpcCallR: "callr", OpcRet: "ret", OpcBrk: "brk", OpcHlt: "hlt",
	OpcFAdd: "fadd", OpcFSub: "fsub", OpcFMul: "fmul", OpcFDiv: "fdiv",
	OpcFCmp: "fcmp", OpcI2F: "i2f", OpcF2I: "f2i",
	OpcFSqrt: "fsqrt", OpcF64To32: "f64to32", OpcF32To64: "f32to64",
	OpcFSin: "fsin", OpcFAtan: "fatan", OpcFLog: "flog", OpcFExp: "fexp",
	OpcAllocFloat: "allocfloat", OpcAlloc: "alloc",
	OpcLabel: "label",
}

func (o Opc) String() string {
	if n, ok := opcNames[o]; ok {
		return n
	}
	return fmt.Sprintf("opc%d", int(o))
}

// Instr is one IR instruction. Control-flow instructions carry their
// target in Sym; label pseudo-instructions carry their name there.
type Instr struct {
	Op       Opc
	Rd       Reg
	Rs1, Rs2 Reg
	Imm      int64
	Sym      string
}

// IsJump reports whether the instruction is a (conditional) jump.
func (i Instr) IsJump() bool {
	switch i.Op {
	case OpcJmp, OpcJeq, OpcJne, OpcJlt, OpcJle, OpcJgt, OpcJge:
		return true
	}
	return false
}

func (i Instr) String() string {
	switch i.Op {
	case OpcLabel:
		return i.Sym + ":"
	case OpcNop, OpcRet, OpcHlt:
		return i.Op.String()
	case OpcMovI:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rd, i.Imm)
	case OpcMovR:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Rs1)
	case OpcLoad:
		return fmt.Sprintf("%s %s, [%s%+d]", i.Op, i.Rd, i.Rs1, i.Imm)
	case OpcStore:
		return fmt.Sprintf("%s [%s%+d], %s", i.Op, i.Rs1, i.Imm, i.Rs2)
	case OpcPush:
		return fmt.Sprintf("%s %s", i.Op, i.Rs1)
	case OpcPop:
		return fmt.Sprintf("%s %s", i.Op, i.Rd)
	case OpcAddI, OpcSubI, OpcAndI, OpcOrI, OpcShlI, OpcSarI:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	case OpcCmp, OpcFCmp:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rs1, i.Rs2)
	case OpcCmpI:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rs1, i.Imm)
	case OpcJmp, OpcJeq, OpcJne, OpcJlt, OpcJle, OpcJgt, OpcJge:
		return fmt.Sprintf("%s %s", i.Op, i.Sym)
	case OpcCall:
		return fmt.Sprintf("%s %#x", i.Op, uint64(i.Imm))
	case OpcCallR:
		return fmt.Sprintf("%s %s", i.Op, i.Rs1)
	case OpcBrk:
		return fmt.Sprintf("%s %d", i.Op, i.Imm)
	case OpcI2F, OpcF2I, OpcAllocFloat:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Rs1)
	default:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs1, i.Rs2)
	}
}

// Fn is one compiled unit in IR form: a linear instruction list with
// labels as pseudo-instructions.
type Fn struct {
	Name   string
	Instrs []Instr
}

// Clone deep-copies the function, for passes that rewrite instructions in
// place: a pass never mutates its input — the pipeline's purity contract.
func (f *Fn) Clone() *Fn {
	out := &Fn{Name: f.Name, Instrs: make([]Instr, len(f.Instrs))}
	copy(out.Instrs, f.Instrs)
	return out
}

// NumInstrs counts real instructions, excluding label pseudo-ops.
func (f *Fn) NumInstrs() int {
	n := 0
	for _, ins := range f.Instrs {
		if ins.Op != OpcLabel {
			n++
		}
	}
	return n
}

// String renders the function with labels outdented, one instruction per
// line — the CLI's ir-dump format.
func (f *Fn) String() string {
	var b strings.Builder
	for _, ins := range f.Instrs {
		if ins.Op == OpcLabel {
			fmt.Fprintf(&b, "%s\n", ins)
		} else {
			fmt.Fprintf(&b, "\t%s\n", ins)
		}
	}
	return b.String()
}
