package jit

import (
	"fmt"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
)

// This file extends the Cogit from single-instruction test compilation to
// whole-method compilation — the paper's stated future work ("generate
// minimal and relevant byte-code sequences for unit testing the JIT
// compiler"). Control flow between byte-codes is resolved through
// per-target labels; the parse-time simulation stack is flushed at every
// basic-block boundary so all incoming edges agree on the frame state.

// pcLabel names the machine label of a byte-code offset.
func pcLabel(pc int) string { return fmt.Sprintf("bc_%d", pc) }

// jumpTargets collects the byte-code offsets that are jump targets.
func jumpTargets(m *bytecode.Method) (map[int]bool, error) {
	targets := make(map[int]bool)
	for pc := 0; pc < len(m.Code); {
		op, operands, next, ok := m.FetchOp(pc)
		if !ok {
			return nil, fmt.Errorf("%w: undecodable byte-code at %d", ErrNotCompilable, pc)
		}
		var operand byte
		if len(operands) > 0 {
			operand = operands[0]
		}
		if off, _, _, isJump := bytecode.JumpOffset(op, operand); isJump {
			targets[next+off] = true
		}
		pc = next
	}
	return targets, nil
}

// CompileMethod compiles a whole method: every byte-code in sequence with
// intra-method control flow. Message sends compile to trampoline calls
// (observation points for the sequence tester); returns compile to the
// frame epilogue; falling off the end answers the receiver.
func (c *Cogit) CompileMethod(m *bytecode.Method, inputStack []heap.Word) (*Stages, error) {
	c.reset()
	c.numTemps = m.TempCount()

	targets, err := jumpTargets(m)
	if err != nil {
		return nil, err
	}

	// Frame preamble.
	c.b.Push(ir.FP)
	c.b.MovR(ir.FP, ir.SP)
	for _, w := range inputStack {
		c.pushConst(w)
	}

	for pc := 0; pc < len(m.Code); {
		op, operands, next, ok := m.FetchOp(pc)
		if !ok {
			return nil, fmt.Errorf("%w: undecodable byte-code at %d", ErrNotCompilable, pc)
		}
		if targets[pc] {
			// Basic-block boundary: every incoming edge must see the
			// canonical (flushed) frame state.
			c.flushAll()
			c.b.Label(pcLabel(pc))
		}
		var operand byte
		if len(operands) > 0 {
			operand = operands[0]
		}
		if off, _, _, isJump := bytecode.JumpOffset(op, operand); isJump {
			c.methodJumpLabel = pcLabel(next + off)
		} else {
			c.methodJumpLabel = ""
		}
		c.genBytecode(m, op, operands)
		c.methodJumpLabel = ""
		if c.err != nil {
			return nil, c.err
		}
		pc = next
	}

	// Labels may point one past the last instruction.
	if targets[len(m.Code)] {
		c.flushAll()
		c.b.Label(pcLabel(len(m.Code)))
	}
	// Falling off the end answers the receiver (implicit returnReceiver).
	c.emitEpilogueReturn()
	return c.finish()
}
