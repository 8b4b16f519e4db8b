package cogdiff

import (
	"fmt"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/core"
	"cogdiff/internal/defects"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
)

// This file exposes the extension features: exploration caching and
// byte-code sequence testing (the paper's future work).

// ExploreJSON explores an instruction and serializes the result, so it
// can be cached on disk and reused across processes (§5.4).
func ExploreJSON(name string) ([]byte, error) {
	target, prims, err := resolveTarget(name)
	if err != nil {
		return nil, err
	}
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	return concolic.MarshalExploration(explorer.Explore(target))
}

// TestInstructionCached differentially tests using a cached exploration
// produced by ExploreJSON, skipping the concolic phase entirely.
func TestInstructionCached(cached []byte, compiler string) (*InstructionResult, error) {
	ex, err := concolic.UnmarshalExploration(cached)
	if err != nil {
		return nil, err
	}
	kind, err := compilerKindOf(compiler)
	if err != nil {
		return nil, err
	}
	prims := primitives.NewTable()
	tester := core.NewTester(prims, defects.ProductionVM())
	res := &InstructionResult{
		Instruction: ex.Target.Name,
		Compiler:    compiler,
		Paths:       len(ex.Paths) + ex.CuratedOut,
	}
	for _, p := range ex.Paths {
		curated := false
		for _, isa := range []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like} {
			v := tester.TestPath(ex.Target, ex, p, kind, isa)
			if !v.Skipped {
				curated = true
			}
			if v.Differs {
				fam := core.Classify(ex.Target, prims, v.InterpExit, v.Observed)
				res.Differences = append(res.Differences, Difference{
					Instruction: ex.Target.Name,
					Compiler:    compiler,
					ISA:         isa.String(),
					Family:      fam.String(),
					Cause:       v.Cause,
					Detail:      v.Detail,
				})
			}
		}
		if curated {
			res.Curated++
		}
	}
	return res, nil
}

// Program is a byte-code method under construction for sequence testing.
// It wraps the method builder with the subset of operations the public
// sequence API supports.
type Program struct {
	b *bytecode.Builder
}

// NewProgram starts a method taking numArgs arguments.
func NewProgram(name string, numArgs int) *Program {
	return &Program{b: bytecode.NewBuilder(name, numArgs)}
}

// PushInt, PushArg, PushReceiver, Dup, Pop push and shuffle operands.
func (p *Program) PushInt(v int64) *Program { p.b.PushInt(v); return p }
func (p *Program) PushArg(i int) *Program   { p.b.PushTemp(i); return p }
func (p *Program) PushReceiver() *Program   { p.b.PushReceiver(); return p }
func (p *Program) Dup() *Program            { p.b.Dup(); return p }
func (p *Program) Pop() *Program            { p.b.Pop(); return p }
func (p *Program) Add() *Program            { p.b.Add(); return p }
func (p *Program) Subtract() *Program       { p.b.Subtract(); return p }
func (p *Program) Multiply() *Program       { p.b.Multiply(); return p }
func (p *Program) LessThan() *Program       { p.b.LessThan(); return p }
func (p *Program) Equal() *Program          { p.b.Equal(); return p }
func (p *Program) ReturnTop() *Program      { p.b.ReturnTop(); return p }
func (p *Program) ReturnReceiver() *Program { p.b.ReturnReceiver(); return p }
func (p *Program) Label(name string) *Program {
	p.b.Label(name)
	return p
}
func (p *Program) JumpIfTrue(label string) *Program  { p.b.JumpIfTrue(label); return p }
func (p *Program) JumpIfFalse(label string) *Program { p.b.JumpIfFalse(label); return p }
func (p *Program) Send(selector string, numArgs int) *Program {
	p.b.Send(selector, numArgs)
	return p
}

// SequenceResult reports a sequence differential test.
type SequenceResult struct {
	Compiler string
	ISA      string
	Differs  bool
	Detail   string
	// Outcome describes the agreed (or interpreter-side) boundary
	// behaviour, e.g. "return int:5" or "send #foo:/1 ...".
	Outcome string
}

// TestProgram differentially tests a whole byte-code sequence against
// every byte-code compiler on both ISAs. Receiver and arguments are
// small integers.
func TestProgram(p *Program, receiver int64, args ...int64) ([]SequenceResult, error) {
	m, err := p.b.Method()
	if err != nil {
		return nil, fmt.Errorf("assemble program: %w", err)
	}
	in := core.SequenceInput{Receiver: core.Int64(receiver)}
	for _, a := range args {
		in.Args = append(in.Args, core.Int64(a))
	}
	tester := core.NewTester(primitives.NewTable(), defects.ProductionVM())
	var out []SequenceResult
	for _, kind := range []core.CompilerKind{
		core.SimpleBytecodeCompiler, core.StackToRegisterCompiler, core.RegisterAllocatingCompiler,
	} {
		isas := []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like}
		vs, err := tester.TestSequenceISAs(m, in, kind, isas)
		if err != nil {
			return nil, err
		}
		for i, isa := range isas {
			v := vs[i]
			out = append(out, SequenceResult{
				Compiler: kind.String(),
				ISA:      isa.String(),
				Differs:  v.Differs,
				Detail:   v.Detail,
				Outcome:  v.Interp.String(),
			})
		}
	}
	return out, nil
}
