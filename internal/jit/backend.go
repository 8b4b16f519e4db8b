package jit

import (
	"fmt"
	"time"

	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
	"cogdiff/internal/irverify"
	"cogdiff/internal/machine"
)

// Backend is the shared, ISA-free tail of every compilation: verify the
// front-end's IR, run the front-end's pass pipeline with every stage
// verified, report post-pipeline opcodes to the coverage hook, and retain
// every stage as Stages. Front-ends outside this package (the
// meta-compiled front-end of internal/metacompile) flow through exactly
// the same pipeline, verifier and telemetry as the hand-written Cogits
// and the native-method compiler. Nothing here consults the target ISA:
// Stages.Lower is the only per-ISA step.
type Backend struct {
	// Passes is the pipeline the front-end's IR runs through, in order.
	// The native-method compiler runs none.
	Passes  []ir.Pass
	Metrics *PassMetrics
	OnIR    func(ir.Opc)
	// Pool is the physical register pool lowering assigns to virtual
	// registers.
	Pool []machine.Reg
	// NoVerify disables the static IR verifier. Verification is on by
	// default: the front-end's output and every pass's output are checked
	// for well-formedness and stack balance, and each pass for
	// preservation of its input's abstract stack effect. A violation
	// aborts compilation with an *irverify.Error whose Blame() string
	// ("ir-verify:<rule> after <stage>") attributes the miscompile
	// statically — no instruction of the unit ever executes.
	NoVerify bool
	// RequireDeopt additionally demands a reachable deoptimization stub
	// (a Brk with BrkMetaDeopt) in the front-end's output. Set by the
	// meta-compiled front-end, whose guard chains must always be able to
	// bail out to the interpreter.
	RequireDeopt bool
	// OM is the object memory the front-end resolved its constants
	// against, and HeapBase its HeapUsed when the front-end started. The
	// words allocated since (boxed float and string literals) are
	// retained in the Stages so every ISA's execution can replay them.
	OM       *heap.ObjectMemory
	HeapBase int
}

// stageVerifier carries the verifier's pipeline state from stage to
// stage of one compilation: the previous stage's output (the current
// stage's input), its analysis when one was computed, and its content
// hash for the verified-clean cache.
type stageVerifier struct {
	bk             *Backend
	prevFn         *ir.Fn
	prevAn         *irverify.Analysis
	prevLo, prevHi uint64
}

// check runs the static verifier over fn after the named stage.
// Pass-effect violations are ordered first so a pass that breaks stack
// balance is blamed on that rule even when the breakage knocks on into
// whole-function rules. Three tiers keep the steady-state cost near a
// hash: an unchanged function short-circuits entirely, a (input,
// output) pair already proven clean is a cache lookup, and only a novel
// pair pays for full analysis — with the input's analysis reused from
// the previous stage when it was computed there.
func (sv *stageVerifier) check(stage string, fn *ir.Fn) error {
	bk := sv.bk
	var t0 time.Time
	if bk.Metrics != nil {
		t0 = time.Now() //cogdiff:allow-nondeterminism compile timing feeds telemetry histograms only
	}
	done := func(violations int) {
		if bk.Metrics != nil {
			bk.Metrics.observeVerify(time.Since(t0), violations) //cogdiff:allow-nondeterminism compile timing feeds telemetry histograms only
		}
	}
	opts := irverify.Options{RequireDeopt: bk.RequireDeopt, DeoptBrkID: BrkMetaDeopt}
	if len(bk.Passes) == 0 {
		// No pass will transform fn (a native template), so there is no
		// stage pair to cache: fn is verified directly. The verified-clean
		// cache, and the analysis count gated against the committed bench
		// record, cover pipeline stages.
		vs := opts.Verify(fn)
		done(len(vs))
		if len(vs) > 0 {
			return &irverify.Error{Stage: stage, Violations: vs}
		}
		return nil
	}
	// A pass that changed nothing preserved every invariant of its
	// already verified input, including its stack effect; the carried
	// hash and analysis stay valid for the next stage.
	if sv.prevFn != nil && sameInstrs(sv.prevFn, fn) {
		sv.prevFn = fn
		done(0)
		return nil
	}
	lo, hi := hashFn(fn)
	key := verifyKey{prevLo: sv.prevLo, prevHi: sv.prevHi, fnLo: lo, fnHi: hi,
		requireDeopt: bk.RequireDeopt}
	if verifiedClean(key) {
		sv.prevFn, sv.prevAn = fn, nil
		sv.prevLo, sv.prevHi = lo, hi
		done(0)
		return nil
	}
	an := opts.Analyze(fn)
	bk.Metrics.analyzed()
	var vs []irverify.Violation
	if sv.prevFn != nil {
		if sv.prevAn == nil {
			// The input rode in on a cache hit; its analysis must be
			// rebuilt once for the pass-effect comparison.
			sv.prevAn = opts.Analyze(sv.prevFn)
			bk.Metrics.analyzed()
		}
		vs = irverify.VerifyPassEffectOn(sv.prevAn, an)
	}
	vs = append(vs, an.Violations()...)
	done(len(vs))
	if len(vs) > 0 {
		return &irverify.Error{Stage: stage, Violations: vs}
	}
	recordVerifiedClean(key)
	sv.prevFn, sv.prevAn = fn, an
	sv.prevLo, sv.prevHi = lo, hi
	return nil
}

// sameInstrs reports whether two functions carry instruction-identical
// bodies, making re-verification redundant.
func sameInstrs(a, b *ir.Fn) bool {
	if len(a.Instrs) != len(b.Instrs) {
		return false
	}
	for i := range a.Instrs {
		if a.Instrs[i] != b.Instrs[i] {
			return false
		}
	}
	return true
}

// Stages is the ISA-free product of one compilation. It is verified once
// and then lowered per ISA, and blame lowers any pipeline prefix from it
// instead of recompiling: passes are pure, so one full run already holds
// every prefix's output.
type Stages struct {
	// IR holds the front-end's output at index 0 and the IR after the
	// pipeline's k-th pass at index k.
	IR []*ir.Fn
	// Passes names the pipeline: Passes[k-1] produced IR[k].
	Passes    []string
	Selectors []Selector
	NumTemps  int
	Pool      []machine.Reg
	// HeapBase is the heap watermark (HeapUsed) the front-end started
	// from, and Heap the words it allocated from there: the literal boxes
	// whose addresses the IR embeds.
	HeapBase int
	Heap     []heap.Word

	metrics *PassMetrics
}

// Final is the index of the fully optimized stage.
func (s *Stages) Final() int { return len(s.IR) - 1 }

// StageName names stage k as blame reports it: "front-end" for the
// front-end's output, "pass:<name>" for a pass's.
func (s *Stages) StageName(k int) string {
	if k == 0 {
		return "front-end"
	}
	return "pass:" + s.Passes[k-1]
}

// Lower is the per-ISA step: it lowers stage k to a machine program for
// isa and encodes it. Every call produces one machine-code unit.
func (s *Stages) Lower(k int, isa machine.ISA) (*CompiledMethod, error) {
	prog, err := machine.Lower(s.IR[k], isa, machine.CodeBase, s.Pool)
	if err != nil {
		return nil, err
	}
	code, err := machine.Encode(prog, isa)
	if err != nil {
		return nil, err
	}
	s.metrics.unitCompiled()
	return &CompiledMethod{
		Prog:      prog,
		Code:      code,
		ISA:       isa,
		Selectors: s.Selectors,
		NumTemps:  s.NumTemps,
	}, nil
}

// Replay prepares om to execute code lowered from these stages: om must
// stand at the recorded heap watermark (a deterministically rebuilt input
// frame guarantees it), and the front-end's heap words are copied in at
// their original addresses. A mismatch is an error, never a recompile.
func (s *Stages) Replay(om *heap.ObjectMemory) error {
	if err := om.ReplayHeapRange(s.HeapBase, s.Heap); err != nil {
		return fmt.Errorf("jit: replaying compiled stages: %w", err)
	}
	return nil
}

// Optimize runs the built IR through the pipeline once and returns every
// stage, each verified unless NoVerify is set.
func (bk *Backend) Optimize(b *ir.Builder, selectors []Selector, numTemps int) (*Stages, error) {
	fn, err := b.Finish()
	if err != nil {
		return nil, err
	}
	var sv *stageVerifier
	if !bk.NoVerify {
		sv = &stageVerifier{bk: bk}
		if err := sv.check("front-end", fn); err != nil {
			return nil, err
		}
	}
	st := &Stages{
		IR:        make([]*ir.Fn, 1, len(bk.Passes)+1),
		Passes:    make([]string, len(bk.Passes)),
		Selectors: selectors,
		NumTemps:  numTemps,
		Pool:      bk.Pool,
		metrics:   bk.Metrics,
	}
	st.IR[0] = fn
	for i, p := range bk.Passes {
		if bk.Metrics != nil {
			t0 := time.Now() //cogdiff:allow-nondeterminism compile timing feeds telemetry histograms only
			fn = p.Run(fn)
			bk.Metrics.observePass(p.Name, time.Since(t0)) //cogdiff:allow-nondeterminism compile timing feeds telemetry histograms only
		} else {
			fn = p.Run(fn)
		}
		if sv != nil {
			if err := sv.check("pass:"+p.Name, fn); err != nil {
				return nil, err
			}
		}
		st.IR = append(st.IR, fn)
		st.Passes[i] = p.Name
	}
	if bk.OnIR != nil {
		for _, ins := range fn.Instrs {
			if ins.Op != ir.OpcLabel {
				bk.OnIR(ins.Op)
			}
		}
	}
	if bk.OM != nil {
		st.HeapBase = bk.HeapBase
		st.Heap = bk.OM.HeapRange(bk.HeapBase, bk.OM.HeapUsed())
	}
	return st, nil
}
