package core

import (
	"fmt"
	"strings"

	"cogdiff/internal/concolic"
	"cogdiff/internal/interp"
	"cogdiff/internal/machine"
)

// DumpIR compiles one explored path of the instruction and renders every
// compilation stage: the front-end IR, the IR after each optimization
// pass, and the lowered machine program for both ISAs. The path is
// optimized once; both lowered programs come from the same retained
// stages, which are printed once.
//
// Not every explored path materializes a compilable input frame (invalid
// frames are the test runner's expected failures), so the dump uses the
// first path that compiles end to end.
func (t *Tester) DumpIR(target concolic.Target, ex *concolic.Exploration, kind CompilerKind) (string, error) {
	var lastErr error
	for _, path := range ex.Paths {
		out, err := t.dumpPathIR(target, ex, path, kind)
		if err == nil {
			return out, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("core: %s has no explored paths", target.Name)
	}
	return "", fmt.Errorf("core: no explored path of %s compiles: %w", target.Name, lastErr)
}

func (t *Tester) dumpPathIR(target concolic.Target, ex *concolic.Exploration, path *concolic.PathResult, kind CompilerKind) (string, error) {
	env := t.getEnv()
	defer t.putEnv(env)
	var frame *interp.Frame
	if kind != NativeMethodCompilerKind {
		var err error
		if frame, err = concolic.NewFrameBuilder(env.om, ex.Universe, path.Model).BuildFrame(target); err != nil {
			return "", err
		}
	}
	st, err := t.optimizeUnit(env.om, target, kind, frame)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "instruction %s, compiler %s\n", target.Name, kind)
	for k, fn := range st.IR {
		name := "front-end"
		if k > 0 {
			name = st.Passes[k-1]
		}
		fmt.Fprintf(&b, "\n== %s ==\n%s", name, fn)
	}
	for _, isa := range []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like} {
		cm, err := st.Lower(st.Final(), isa)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\n== lowered %s ==\n%s", isa, cm.Prog.Disassemble())
	}
	return b.String(), nil
}
