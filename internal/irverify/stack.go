package irverify

import (
	"fmt"
	"strings"

	"cogdiff/internal/ir"
)

// The abstract stack model. The front-ends' frame conventions make SP
// and FP fully trackable without value analysis:
//
//	Push rs          depth+1        Pop rd            depth-1
//	AddI sp,sp,k     depth-k        SubI sp,sp,k      depth+k
//	MovR fp,sp       fp := depth    MovR sp,fp        depth := fp
//	Call/CallR       neutral (the callee pops its own return address)
//	Ret              exit; requires depth == 0 (the entry slot is the
//	                 caller's — the sentinel return address Ret consumes)
//
// Depth counts pushed words relative to function entry. The analysis is
// path-sensitive up to a bound: each program point keeps a small set of
// distinct incoming states, so a join merging different depths stays
// precise (each state flows on independently). Past the bound, or after
// an untracked SP write, the state degrades to "unknown" — harmless
// into a terminal breakpoint but a violation if it reaches a
// depth-sensitive instruction.
//
// Alongside depth the analysis tracks the *raw* cumulative stack
// movement: the signed sum of explicit pushes, pops and SP adjustments,
// deliberately ignoring the frame teardown's `MovR sp,fp` restore. The
// teardown discards whatever the body left on the stack, so exit depth
// alone cannot distinguish a correct body from one where a pass leaked
// a slot — the raw movement can. Correct passes preserve it exactly:
// dead-push/pop removes balanced pairs (+1 −1), constant folding never
// touches stack traffic, and a sound peephole deletes only stack-neutral
// no-ops. A pass that drops a lone pop shifts every downstream exit's
// raw movement by +1, which VerifyPassEffect rejects.

// absState is the abstract machine state at one program point.
type absState struct {
	depth   int
	depthOK bool
	fp      int
	fpOK    bool
	raw     int
	rawOK   bool
}

// maxStatesPerPoint bounds distinct states tracked per instruction
// before the analysis degrades that point to unknown (termination on
// pathological inputs; real pipelines see one or two states).
const maxStatesPerPoint = 8

// analysis is the retained result of one abstract interpretation of a
// function: everything else lives in the pooled scratch and is gone once
// Analyze returns.
type analysis struct {
	// exits lists every reachable exit point in linear order. Their
	// state sets share one backing array.
	exits []exitPoint
	// violations are the flow-sensitive rule violations.
	violations []Violation
}

// point is one instruction's record in the flow analysis. Most points
// are reached in a single state, which lives inline; further distinct
// states go to the scratch's shared overflow slice, linked per point.
type point struct {
	first absState
	// n counts the distinct states recorded; zero means unreached.
	n int32
	// extra is 1 + the overflow index of the latest extra state, 0 when
	// there is none (so a cleared point needs no initialization).
	extra int32
	// flagged limits the flow violations to one per instruction.
	flagged bool
}

func (p *point) reached() bool { return p.n > 0 }

type overflowState struct {
	st   absState
	next int32 // the point's previous extra state, in point.extra's encoding
}

type workItem struct {
	index int
	st    absState
}

// exitState is one abstract arrival state at an exit instruction,
// projected down to what a pass must preserve: the stack depth and the
// raw cumulative movement (each OK flag false when an untracked write
// made it unprovable).
type exitState struct {
	depth   int
	depthOK bool
	raw     int
	rawOK   bool
}

func (s exitState) String() string {
	d, r := "?", "?"
	if s.depthOK {
		d = fmt.Sprintf("%+d", s.depth)
	}
	if s.rawOK {
		r = fmt.Sprintf("%+d", s.raw)
	}
	return fmt.Sprintf("@%s raw %s", d, r)
}

// less orders exit states canonically, so the comparison is independent
// of the order the worklist discovered them in.
func (s exitState) less(o exitState) bool {
	if s.depthOK != o.depthOK {
		return s.depthOK
	}
	if s.depth != o.depth {
		return s.depth < o.depth
	}
	if s.rawOK != o.rawOK {
		return s.rawOK
	}
	return s.raw < o.raw
}

// exitPoint summarizes one reachable exit instruction: its opcode (Brk,
// Ret or Hlt), the breakpoint id for Brk, and the set of distinct
// abstract states the paths reaching it arrive in, canonically sorted.
// Keeping the states separate — instead of merging them into one
// summary — is what lets VerifyPassEffect see a dropped pop on a
// function whose exits are reached at several depths: merging would
// collapse both sides to "unknown" and the shifted raw movement would
// hide.
type exitPoint struct {
	index  int
	op     ir.Opc
	brkID  int64
	states []exitState
}

func (e exitPoint) effect() string {
	parts := make([]string, len(e.states))
	for i, s := range e.states {
		parts[i] = s.String()
	}
	joined := strings.Join(parts, ", ")
	if e.op == ir.OpcBrk {
		return fmt.Sprintf("%s %d [%s]", e.op, e.brkID, joined)
	}
	return fmt.Sprintf("%s [%s]", e.op, joined)
}

// analyze runs the abstract interpretation over the jump targets
// resolveLabels left in s. On a structurally broken function an
// unresolved jump lands on instruction 0 and a duplicated label's jumps
// on its last definition; the structural rules report both.
func (s *scratch) analyze(fn *ir.Fn) analysis {
	var a analysis
	n := len(fn.Instrs)
	s.points = resize(s.points, n)
	clear(s.points)
	if n == 0 {
		return a
	}
	points := s.points
	s.overflow = s.overflow[:0]
	work := append(s.work[:0], workItem{0, absState{depthOK: true, rawOK: true}})

	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		i, st := it.index, it.st
		if i >= n {
			continue // running off the end is the terminator rule's job
		}
		// Merge into the point's recorded states; revisit only with a
		// genuinely new state.
		p := &points[i]
		if s.recorded(p, st) {
			continue
		}
		if p.n >= maxStatesPerPoint {
			if st.depthOK || st.fpOK {
				st = absState{}
			} else {
				continue
			}
		}
		if p.n == 0 {
			p.first = st
		} else {
			s.overflow = append(s.overflow, overflowState{st: st, next: p.extra})
			p.extra = int32(len(s.overflow))
		}
		p.n++

		ins := fn.Instrs[i]
		next := st
		switch ins.Op {
		case ir.OpcLabel, ir.OpcNop:
			// no effect
		case ir.OpcPush:
			if next.depthOK {
				next.depth++
			}
			next.raw++
		case ir.OpcPop:
			if next.depthOK {
				if next.depth <= 0 {
					a.flag(p, i, RuleUnderflow, fmt.Sprintf("pop at stack depth %d", next.depth))
				}
				next.depth--
			} else {
				a.flag(p, i, RuleStackJoin, "pop with unprovable stack depth")
			}
			next.raw--
			if ins.Rd == ir.SP {
				a.flag(p, i, RuleStackTrack, "pop into sp")
				next.depthOK = false
				next.rawOK = false
			}
			if ins.Rd == ir.FP {
				// The epilogue's `pop fp` restores the caller's FP; the
				// frame anchor is gone from this point on.
				next.fpOK = false
			}
		case ir.OpcAddI, ir.OpcSubI:
			if ins.Rd == ir.SP {
				if ins.Rs1 != ir.SP {
					a.flag(p, i, RuleStackTrack, fmt.Sprintf("sp defined from %s", ins.Rs1))
					next.depthOK = false
					next.rawOK = false
					break
				}
				delta := ins.Imm
				if ins.Op == ir.OpcAddI {
					delta = -delta // the stack grows downward
				}
				if next.depthOK {
					next.depth += int(delta)
					if next.depth < 0 {
						a.flag(p, i, RuleUnderflow, fmt.Sprintf("sp adjusted to depth %d", next.depth))
					}
				} else {
					a.flag(p, i, RuleStackJoin, "sp adjustment with unprovable stack depth")
				}
				next.raw += int(delta)
			}
			if ins.Rd == ir.FP {
				next.fpOK = false
			}
		case ir.OpcMovR:
			switch {
			case ins.Rd == ir.FP && ins.Rs1 == ir.SP:
				if next.depthOK {
					next.fp, next.fpOK = next.depth, true
				} else {
					next.fpOK = false
				}
			case ins.Rd == ir.SP && ins.Rs1 == ir.FP:
				// The frame teardown: SP jumps back to the anchor,
				// discarding the body's leftovers. raw deliberately does
				// not follow — it records explicit traffic only.
				if next.fpOK {
					next.depth, next.depthOK = next.fp, true
				} else {
					a.flag(p, i, RuleStackTrack, "sp restored from an untracked fp")
					next.depthOK = false
				}
			case ins.Rd == ir.SP:
				a.flag(p, i, RuleStackTrack, fmt.Sprintf("sp defined from %s", ins.Rs1))
				next.depthOK = false
				next.rawOK = false
			case ins.Rd == ir.FP:
				next.fpOK = false
			}
		case ir.OpcRet:
			if !next.depthOK {
				a.flag(p, i, RuleFrameBalance, "return with unprovable stack depth (conflicting join)")
			} else if next.depth != 0 {
				a.flag(p, i, RuleFrameBalance, fmt.Sprintf("return at stack depth %d (want 0)", next.depth))
			}
		default:
			if sh := shapes[ins.Op]; sh.rd && ins.Op != ir.OpcStoreX {
				if ins.Rd == ir.SP {
					a.flag(p, i, RuleStackTrack, fmt.Sprintf("sp defined by %s", ins.Op))
					next.depthOK = false
					next.rawOK = false
				}
				if ins.Rd == ir.FP {
					next.fpOK = false
				}
			}
		}

		switch {
		case ins.Op == ir.OpcRet || ins.Op == ir.OpcHlt || ins.Op == ir.OpcBrk:
			// exit; no successors
		case ins.Op == ir.OpcJmp:
			work = append(work, workItem{s.jumpTarget(i), next})
		case ins.IsJump():
			work = append(work, workItem{s.jumpTarget(i), next})
			work = append(work, workItem{i + 1, next})
		default:
			work = append(work, workItem{i + 1, next})
		}
	}
	s.work = work

	// Collect reachable exits in linear order, each with its canonically
	// sorted, deduplicated set of arrival states. One array backs every
	// exit's states.
	nexits, nstates := 0, 0
	for i, ins := range fn.Instrs {
		if points[i].reached() && isExit(ins.Op) {
			nexits++
			nstates += int(points[i].n)
		}
	}
	if nexits == 0 {
		return a
	}
	a.exits = make([]exitPoint, 0, nexits)
	states := make([]exitState, 0, nstates)
	for i, ins := range fn.Instrs {
		p := &points[i]
		if !p.reached() || !isExit(ins.Op) {
			continue
		}
		e := exitPoint{index: i, op: ins.Op}
		if ins.Op == ir.OpcBrk {
			e.brkID = ins.Imm
		}
		start := len(states)
		states = addExitState(states, start, p.first)
		for j := p.extra; j > 0; j = s.overflow[j-1].next {
			states = addExitState(states, start, s.overflow[j-1].st)
		}
		e.states = states[start:len(states):len(states)]
		sortExitStates(e.states)
		a.exits = append(a.exits, e)
	}
	return a
}

// recorded reports whether st is already one of p's states.
func (s *scratch) recorded(p *point, st absState) bool {
	if p.n == 0 {
		return false
	}
	if p.first == st {
		return true
	}
	for j := p.extra; j > 0; j = s.overflow[j-1].next {
		if s.overflow[j-1].st == st {
			return true
		}
	}
	return false
}

// jumpTarget is the flow successor of jump i: its label's last
// definition, or instruction 0 when the label is undefined.
func (s *scratch) jumpTarget(i int) int {
	return max(int(s.target[i]), 0)
}

// flag records a flow violation at instruction i, at most one per
// instruction.
func (a *analysis) flag(p *point, i int, rule, detail string) {
	if !p.flagged {
		p.flagged = true
		a.violations = append(a.violations, Violation{Rule: rule, Index: i, Detail: detail})
	}
}

func isExit(op ir.Opc) bool {
	return op == ir.OpcBrk || op == ir.OpcRet || op == ir.OpcHlt
}

// addExitState projects st onto what a pass must preserve and appends
// it to states unless states[start:] already holds it.
func addExitState(states []exitState, start int, st absState) []exitState {
	s := exitState{depthOK: st.depthOK, rawOK: st.rawOK}
	if st.depthOK {
		s.depth = st.depth
	}
	if st.rawOK {
		s.raw = st.raw
	}
	for _, prev := range states[start:] {
		if prev == s {
			return states
		}
	}
	return append(states, s)
}

// sortExitStates sorts a point's few states into canonical order
// (insertion sort: at most maxStatesPerPoint+1 elements, no allocation).
func sortExitStates(xs []exitState) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j].less(xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// VerifyPassEffect is the translation-validation-lite check: a correct
// optimization pass preserves its input's abstract stack effect — the
// sequence of reachable exit points (breakpoints, returns, halts, in
// program order, with their identities) and the abstract stack depth at
// each. A pass that drops a pop, unbalances a push, or removes an exit
// changes this summary and is caught here without executing a single
// instruction.
func VerifyPassEffect(before, after *ir.Fn) []Violation {
	return VerifyPassEffectOn(Options{}.Analyze(before), Options{}.Analyze(after))
}

// VerifyPassEffectOn is VerifyPassEffect over already computed analyses,
// so a compilation pipeline re-analyzes nothing: the pass input's
// analysis is the previous stage's output analysis.
func VerifyPassEffectOn(before, after *Analysis) []Violation {
	be := before.flow.exits
	ae := after.flow.exits
	if len(be) != len(ae) {
		return []Violation{{Rule: RuleStackBalance, Index: -1,
			Detail: fmt.Sprintf("pass changed the reachable exit count: %d before, %d after", len(be), len(ae))}}
	}
	var vs []Violation
	for k := range be {
		b, a := be[k], ae[k]
		if b.op != a.op || b.brkID != a.brkID || !sameExitStates(b.states, a.states) {
			vs = append(vs, Violation{Rule: RuleStackBalance, Index: a.index,
				Detail: fmt.Sprintf("exit %d changed stack effect: %s before, %s after", k, b.effect(), a.effect())})
		}
	}
	return vs
}

// sameExitStates compares two canonically sorted arrival-state sets.
func sameExitStates(b, a []exitState) bool {
	if len(b) != len(a) {
		return false
	}
	for i := range b {
		if b[i] != a[i] {
			return false
		}
	}
	return true
}
