package core

import (
	"errors"
	"fmt"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/interp"
	"cogdiff/internal/irverify"
	"cogdiff/internal/jit"
	"cogdiff/internal/machine"
	"cogdiff/internal/metacompile"
	"cogdiff/internal/primitives"
	"cogdiff/internal/telemetry"
)

// maxMachineSteps bounds one compiled execution.
const maxMachineSteps = 20000

// Tester performs interpreter-guided differential testing of one compiler
// against the interpreter (Fig. 1, steps 2-4).
type Tester struct {
	Prims   *primitives.Table
	Defects defects.Switches

	// Telemetry handles, resolved once by SetMetrics so the per-path
	// hot loop touches only atomics. All nil (no-op) by default.
	passMetrics *jit.PassMetrics

	// noReuse switches off the execution-environment pool: every
	// execution boots fresh state.
	// The determinism suite uses it to pin that pooling cannot change a
	// single report byte.
	noReuse bool

	// noVerify disables the static IR verifier inside every compiler this
	// tester constructs. Verification is on by default; the byte-identity
	// suite flips this to pin that the verifier cannot change a report
	// byte on a clean catalog.
	noVerify bool
}

// NewTester builds a tester with the given native-method table and seeded
// defect state.
func NewTester(prims *primitives.Table, sw defects.Switches) *Tester {
	return &Tester{Prims: prims, Defects: sw}
}

// SetMetrics attaches a telemetry registry, resolving the instrument
// handles the compilation path updates. Call before testing starts; the
// resolved handles are read-only afterwards and safe to share across
// workers. A nil registry leaves the tester un-instrumented.
func (t *Tester) SetMetrics(reg *telemetry.Registry) {
	t.passMetrics = jit.NewPassMetrics(reg, t.Defects)
}

// SetNoReuse flips the tester to its reuse-free reference behaviour:
// no pooled environments.
func (t *Tester) SetNoReuse() { t.noReuse = true }

// SetNoVerify disables the static IR verifier for every compilation this
// tester performs.
func (t *Tester) SetNoVerify() { t.noVerify = true }

// interpreterReference re-executes the interpreter concretely for a path
// on the env's (freshly reset) object memory and returns its exit, frame
// and input map.
func (t *Tester) interpreterReference(env *execEnv, target concolic.Target, ex *concolic.Exploration, path *concolic.PathResult) (interp.Exit, *interp.Frame, map[heap.Word]int, error) {
	om := env.om
	b := concolic.NewFrameBuilder(om, ex.Universe, path.Model)
	frame, err := b.BuildFrame(target)
	if err != nil {
		return interp.Exit{}, nil, nil, err
	}
	ctx := interp.NewCtx(om, frame, target.Method)
	ctx.Primitives = t.Prims
	ctx.InterpreterDefects = interp.DefectSwitches{AsFloatSkipsTypeCheck: t.Defects.AsFloatSkipsTypeCheck}
	var exit interp.Exit
	if target.Kind == concolic.TargetBytecode {
		exit = interp.RunInstruction(ctx)
	} else {
		exit = interp.RunPrimitive(ctx, t.Prims, target.PrimIndex)
	}
	return exit, frame, b.InputObjects(), nil
}

// UnitRun batches the paths of one unit (target × exploration): the
// interpreter reference for a path is computed once and reused for every
// (compiler, ISA) pairing, and each (path, compiler) is optimized once
// and lowered per ISA. Call Close when the unit is done to release the
// held environment. A UnitRun is not safe for concurrent use; units are
// the parallelism grain, so each worker drives its own.
type UnitRun struct {
	t      *Tester
	target concolic.Target
	ex     *concolic.Exploration

	// Cached interpreter reference for the path most recently tested.
	// Paths arrive path-major (all compilers × ISAs of a path together),
	// so one slot suffices. refEnv owns the reference object memory and
	// is retired when the path changes.
	refPath *concolic.PathResult
	refEnv  *execEnv
	ref     interpRef
	refErr  error

	// Retained optimization of the (path, compiler) most recently
	// compiled. Every ISA and every blame prefix of that pair lowers
	// these stages instead of recompiling.
	stPath *concolic.PathResult
	stKind CompilerKind
	st     *jit.Stages
	stErr  error
}

// BeginUnit starts a batched run over one unit's paths.
func (t *Tester) BeginUnit(target concolic.Target, ex *concolic.Exploration) *UnitRun {
	return &UnitRun{t: t, target: target, ex: ex}
}

// Close releases the unit's held execution environment.
func (u *UnitRun) Close() {
	if u.refEnv != nil {
		u.t.putEnv(u.refEnv)
		u.refEnv = nil
	}
	u.refPath, u.ref = nil, interpRef{}
	u.stPath, u.st, u.stErr = nil, nil, nil
}

// interpRef is the interpreter side of one path's comparisons: the
// reference exit, the frame and object memory it left and the input map,
// plus their canonical forms. The forms are rendered on the first
// comparison and shared by every (compiler, ISA, blame stage) comparison
// of the path, so the interpreter side is canonicalized once per path.
type interpRef struct {
	exit   interp.Exit
	frame  *interp.Frame
	om     *heap.ObjectMemory
	inputs map[heap.Word]int

	rendered     bool
	result       string
	stack, temps []string
	effects      []HeapEffect
}

// canonical renders the reference's result, operand stack, temporaries
// and input-object bodies on first use.
func (r *interpRef) canonical() *interpRef {
	if r.rendered {
		return r
	}
	canonicalValues := func(vs []interp.Value) []string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = Canonicalize(r.om, v.W, r.inputs)
		}
		return out
	}
	r.result = Canonicalize(r.om, r.exit.Result.W, r.inputs)
	r.stack, r.temps = canonicalValues(r.frame.Stack), canonicalValues(r.frame.Temps)
	r.effects = HeapEffects(r.om, r.inputs)
	r.rendered = true
	return r
}

// reference returns the interpreter reference for path, computing it on
// the first request and replaying the cached result for subsequent
// (compiler, ISA) pairings of the same path.
func (u *UnitRun) reference(path *concolic.PathResult) (*interpRef, error) {
	if u.refPath == path {
		return &u.ref, u.refErr
	}
	if u.refEnv != nil {
		u.t.putEnv(u.refEnv)
		u.refEnv = nil
	}
	u.refPath = nil
	env := u.t.getEnv()
	// A contained panic below abandons env (never pooled again) and
	// leaves the slot empty, so the next call recomputes deterministically.
	exit, frame, inputs, err := u.t.interpreterReference(env, u.target, u.ex, path)
	u.refPath = path
	u.ref = interpRef{exit: exit, frame: frame, inputs: inputs}
	u.refErr = err
	if err != nil {
		u.t.putEnv(env)
		return &u.ref, err
	}
	u.refEnv = env
	u.ref.om = env.om
	return &u.ref, nil
}

// TestPath runs one concolic path against one compiler on one ISA within
// a unit batch (Fig. 1 steps 2-4), reusing the per-path interpreter
// reference.
func (u *UnitRun) TestPath(path *concolic.PathResult, kind CompilerKind, isa machine.ISA) PathVerdict {
	target := u.target
	v := PathVerdict{Compiler: kind, ISA: isa}

	// Expected failures of the test runner (§3.4): invalid frames always,
	// invalid memory accesses for unsafe byte-codes.
	switch path.Exit.Kind {
	case interp.ExitInvalidFrame:
		v.Skipped, v.Reason = true, "invalid frame (expected failure)"
		return v
	case interp.ExitInvalidMemoryAccess:
		if target.Kind == concolic.TargetBytecode {
			v.Skipped, v.Reason = true, "invalid memory access on unsafe byte-code (expected failure)"
			return v
		}
	case interp.ExitUnsupported:
		v.Skipped, v.Reason = true, "unsupported instruction"
		return v
	}
	if (kind == NativeMethodCompilerKind) != (target.Kind == concolic.TargetNativeMethod) {
		v.Skipped, v.Reason = true, "compiler does not apply to this instruction kind"
		return v
	}
	if kind == MetaJITCompiler {
		// The derived compiler's guard chain only contains paths the
		// generator's plan supports; consult the plan up front so the
		// skip is deterministic and named, instead of a deopt breakpoint.
		if ok, reason := metacompile.PlanFor(target.Method).PathSupported(path.Path.Signature()); !ok {
			v.Skipped, v.Reason = true, "not compilable: metacompile: "+reason
			return v
		}
	}

	ref, err := u.reference(path)
	if err != nil {
		v.Skipped, v.Reason = true, "input construction failed: "+err.Error()
		return v
	}

	obs, err := u.runCompiled(path, kind, isa, finalStage)
	if err != nil {
		var verr *irverify.Error
		if errors.As(err, &verr) {
			// Static verdict: the verifier rejected the compiled unit, so
			// the difference is established — and blamed — without
			// executing a single instruction of it.
			v.Differs = true
			v.Cause = verr.Blame()
			v.Detail = "static IR verification failed: " + verr.Error()
			v.Observed = &CompiledObservation{Kind: CompiledVerifierReject, Detail: verr.Error()}
			v.InterpExit = ref.exit
			return v
		}
		if errors.Is(err, jit.ErrNotCompilable) {
			v.Skipped, v.Reason = true, "not compilable: "+err.Error()
			return v
		}
		v.Skipped, v.Reason = true, "compilation failed: "+err.Error()
		return v
	}
	v.Observed = obs
	v.InterpExit = ref.exit

	differs, detail := compare(target, ref, obs)
	v.Differs = differs
	v.Detail = detail
	if differs {
		v.Cause = u.blamePath(path, kind, isa, ref)
	}
	return v
}

// TestPath runs one concolic path against one compiler on one ISA and
// compares the observable behaviour. It is the single-shot form of a
// UnitRun; callers testing several paths or pairings of one unit should
// batch through BeginUnit instead.
func (t *Tester) TestPath(target concolic.Target, ex *concolic.Exploration, path *concolic.PathResult, kind CompilerKind, isa machine.ISA) PathVerdict {
	u := t.BeginUnit(target, ex)
	defer u.Close()
	return u.TestPath(path, kind, isa)
}

// blamePath attributes a differing path verdict to a compilation stage by
// executing every stage the (path, compiler) optimization retained: if
// the bare front-end output already differs from the interpreter
// reference the front-end is blamed, otherwise the first pass whose
// output flips the verdict is. Native methods have no pipeline, so every
// native difference is a front-end difference.
func (u *UnitRun) blamePath(path *concolic.PathResult, kind CompilerKind, isa machine.ISA, ref *interpRef) string {
	if kind == NativeMethodCompilerKind {
		return "front-end"
	}
	// The differing run just compiled this pair, so the slot holds its
	// stages.
	st := u.st
	for k := 0; k <= st.Final(); k++ {
		obs, err := u.runCompiled(path, kind, isa, k)
		if err != nil {
			return "front-end"
		}
		if differs, _ := compare(u.target, ref, obs); differs {
			return st.StageName(k)
		}
	}
	// Every stage agreed yet the optimized run differed: the re-run did
	// not reproduce, which the blame string surfaces rather than hides.
	return "unreproducible"
}

// finalStage selects the fully optimized stage in runCompiled.
const finalStage = -1

// stages returns the (path, kind) optimization for an execution on om,
// whose input frame is already built. The first request compiles on om,
// so the front-end's literal boxes land on top of the frame; every later
// request for the pair replays the recorded boxes into om instead, which
// fails unless om's frame left the heap at the recorded watermark.
func (u *UnitRun) stages(path *concolic.PathResult, kind CompilerKind, om *heap.ObjectMemory, frame *interp.Frame) (*jit.Stages, error) {
	if u.stPath == path && u.stKind == kind {
		if u.stErr != nil {
			return nil, u.stErr
		}
		if err := u.st.Replay(om); err != nil {
			return nil, err
		}
		return u.st, nil
	}
	// A contained panic below leaves the slot empty, so the next request
	// recompiles deterministically.
	u.stPath = nil
	st, err := u.t.optimizeUnit(om, u.target, kind, frame)
	u.stPath, u.stKind, u.st, u.stErr = path, kind, st, err
	return st, err
}

// runCompiled executes stage k of the path's optimization under kind
// (finalStage for the fully optimized one), lowered for isa, on the
// simulated machine and extracts the observable behaviour. The execution
// runs on a pooled environment; the returned observation holds only
// rendered values, so the environment is released before returning. A
// contained panic abandons the environment instead.
func (u *UnitRun) runCompiled(path *concolic.PathResult, kind CompilerKind, isa machine.ISA, k int) (*CompiledObservation, error) {
	t := u.t
	env := t.getEnv()
	om, cpu := env.om, env.cpu
	b := concolic.NewFrameBuilder(om, u.ex.Universe, path.Model)
	frame, err := b.BuildFrame(u.target)
	if err != nil {
		t.putEnv(env)
		return nil, err
	}
	inputs := b.InputObjects()

	if t.Defects.SimulationMissingAccessors {
		cpu.SimDefects.MissingSetters = map[machine.Reg]bool{
			machine.ExtraReg: true,
			machine.Arg2Reg:  true,
		}
	}

	st, err := u.stages(path, kind, om, frame)
	if err != nil {
		t.putEnv(env)
		return nil, err
	}
	if k == finalStage {
		k = st.Final()
	}
	cm, err := st.Lower(k, isa)
	if err != nil {
		t.putEnv(env)
		return nil, err
	}
	var obs *CompiledObservation
	if kind == NativeMethodCompilerKind {
		obs, err = t.runCompiledNative(cm, om, cpu, frame, inputs)
	} else {
		obs, err = t.runCompiledBytecode(u.target, cm, om, cpu, frame, inputs)
	}
	t.putEnv(env)
	return obs, err
}

func (t *Tester) runCompiledBytecode(target concolic.Target, cm *jit.CompiledMethod, om *heap.ObjectMemory, cpu *machine.CPU, frame *interp.Frame, inputs map[heap.Word]int) (*CompiledObservation, error) {
	// Frame setup per the compiled calling convention: temporaries pushed
	// first (temp 0 deepest), then the sentinel return address; the
	// receiver travels in ReceiverResultReg.
	cpu.Reset()
	for _, tv := range frame.Temps {
		if err := pushWord(cpu, tv.W); err != nil {
			return nil, err
		}
	}
	if err := pushWord(cpu, machine.SentinelReturn); err != nil {
		return nil, err
	}
	cpu.Regs[machine.ReceiverResultReg] = frame.Receiver.W
	cpu.Install(cm.Prog)
	stop := cpu.Run(maxMachineSteps)

	obs := &CompiledObservation{Steps: stop.Steps, CodeBytes: len(cm.Code)}
	numTemps := target.Method.TempCount()

	readFrameState := func(skipTop int) {
		fp := cpu.Regs[machine.FP]
		raw, err := cpu.StackSlice(fp)
		if err == nil && len(raw) >= skipTop {
			cells := raw[skipTop:] // top first
			stackWords := make([]heap.Word, len(cells))
			for i, w := range cells {
				stackWords[len(cells)-1-i] = w // bottom first
			}
			obs.Stack = CanonicalizeAll(om, stackWords, inputs)
		}
		temps := make([]heap.Word, numTemps)
		for i := 0; i < numTemps; i++ {
			w, err := cpu.Mem.Read(fp + heap.Word(jit.TempOffset(i, numTemps)))
			if err == nil {
				temps[i] = w
			}
		}
		obs.Temps = CanonicalizeAll(om, temps, inputs)
	}

	switch stop.Kind {
	case machine.StopBreakpoint:
		switch stop.BreakID {
		case jit.BrkEndFall:
			obs.Kind = CompiledEndFall
		case jit.BrkJumpTaken:
			obs.Kind = CompiledJumpTaken
		default:
			obs.Kind = CompiledCrash
			obs.Detail = fmt.Sprintf("unexpected breakpoint %d", stop.BreakID)
		}
		readFrameState(0)
	case machine.StopTrampoline:
		obs.Kind = CompiledMessageSend
		sel, ok := cm.SelectorAt(int64(cpu.Regs[machine.ClassSelectorReg]))
		if ok {
			obs.Selector, obs.NumArgs = sel.Name, sel.NumArgs
		}
		readFrameState(1) // the trampoline call pushed its return address
	case machine.StopReturned:
		obs.Kind = CompiledMethodReturn
		obs.Result = Canonicalize(om, cpu.Regs[machine.ReceiverResultReg], inputs)
		// After the epilogue the frame is gone; temporaries sit above the
		// (restored) stack pointer and remain readable.
		temps := make([]heap.Word, numTemps)
		for i := 0; i < numTemps; i++ {
			addr := heap.Word(machine.StackLimit - 1 - i)
			if w, err := cpu.Mem.Read(addr); err == nil {
				temps[i] = w
			}
		}
		obs.Temps = CanonicalizeAll(om, temps, inputs)
	case machine.StopFault:
		obs.Kind = CompiledCrash
		obs.Detail = stop.String()
	case machine.StopSimulationError:
		obs.Kind = CompiledSimulationError
		obs.Detail = stop.String()
	default:
		obs.Kind = CompiledRunaway
		obs.Detail = stop.String()
	}
	obs.Heap = HeapEffects(om, inputs)
	return obs, nil
}

func (t *Tester) runCompiledNative(cm *jit.CompiledMethod, om *heap.ObjectMemory, cpu *machine.CPU, frame *interp.Frame, inputs map[heap.Word]int) (*CompiledObservation, error) {
	cpu.Reset()
	if err := pushWord(cpu, machine.SentinelReturn); err != nil {
		return nil, err
	}
	cpu.Regs[machine.ReceiverResultReg] = frame.Receiver.W
	argRegs := []machine.Reg{machine.Arg0Reg, machine.Arg1Reg, machine.Arg2Reg}
	for i, av := range frame.Temps {
		if i < len(argRegs) {
			cpu.Regs[argRegs[i]] = av.W
		}
	}
	cpu.Install(cm.Prog)
	stop := cpu.Run(maxMachineSteps)

	obs := &CompiledObservation{Steps: stop.Steps, CodeBytes: len(cm.Code)}
	switch stop.Kind {
	case machine.StopReturned:
		obs.Kind = CompiledReturned
		obs.Result = Canonicalize(om, cpu.Regs[machine.ReceiverResultReg], inputs)
	case machine.StopBreakpoint:
		switch stop.BreakID {
		case jit.BrkNativeFallthrough:
			obs.Kind = CompiledFailure
		case jit.BrkNotImplemented:
			obs.Kind = CompiledNotImplemented
		default:
			obs.Kind = CompiledCrash
			obs.Detail = fmt.Sprintf("unexpected breakpoint %d", stop.BreakID)
		}
	case machine.StopFault:
		obs.Kind = CompiledCrash
		obs.Detail = stop.String()
	case machine.StopSimulationError:
		obs.Kind = CompiledSimulationError
		obs.Detail = stop.String()
	default:
		obs.Kind = CompiledRunaway
		obs.Detail = stop.String()
	}
	obs.Heap = HeapEffects(om, inputs)
	return obs, nil
}

func pushWord(cpu *machine.CPU, w heap.Word) error {
	cpu.Regs[machine.SP]--
	return cpu.Mem.Write(cpu.Regs[machine.SP], w)
}

// compare validates the compiled observation against the interpreter
// reference: exit-condition equivalence first, then frame effects.
func compare(target concolic.Target, ref *interpRef, obs *CompiledObservation) (bool, string) {
	iExit := ref.exit
	if obs.Kind == CompiledCrash {
		return true, fmt.Sprintf("interpreter exits %v but compiled code crashes (%s)", iExit, obs.Detail)
	}
	if obs.Kind == CompiledSimulationError {
		return true, "simulation error while executing compiled code: " + obs.Detail
	}
	if obs.Kind == CompiledNotImplemented {
		return true, fmt.Sprintf("interpreter exits %v but compiled code raises not-yet-implemented", iExit)
	}
	if obs.Kind == CompiledRunaway {
		return true, "compiled code did not terminate: " + obs.Detail
	}

	if target.Kind == concolic.TargetNativeMethod {
		return compareNative(ref.canonical(), obs)
	}
	return compareBytecode(target, ref.canonical(), obs)
}

func compareNative(ref *interpRef, obs *CompiledObservation) (bool, string) {
	iExit := ref.exit
	switch iExit.Kind {
	case interp.ExitSuccess:
		if obs.Kind != CompiledReturned {
			return true, fmt.Sprintf("interpreter succeeds but compiled code %s", obs.Kind)
		}
		if ref.result != obs.Result {
			return true, fmt.Sprintf("results differ: interpreter %s, compiled %s", ref.result, obs.Result)
		}
	case interp.ExitFailure:
		if obs.Kind != CompiledFailure {
			return true, fmt.Sprintf("interpreter fails (code %d) but compiled code %s (result %s)", iExit.FailCode, obs.Kind, obs.Result)
		}
	default:
		return true, fmt.Sprintf("interpreter exit %v has no compiled counterpart (%s)", iExit, obs.Kind)
	}
	return compareHeap(ref.effects, obs.Heap)
}

func compareBytecode(target concolic.Target, ref *interpRef, obs *CompiledObservation) (bool, string) {
	iExit := ref.exit
	switch iExit.Kind {
	case interp.ExitSuccess:
		expected := CompiledEndFall
		if op, operands, next, ok := target.Method.FetchOp(0); ok {
			var operand byte
			if len(operands) > 0 {
				operand = operands[0]
			}
			if off, _, _, isJump := bytecode.JumpOffset(op, operand); isJump && iExit.NextPC != next {
				_ = off
				expected = CompiledJumpTaken
			}
		}
		// A jump of length zero lands on the fall-through end either way.
		if obs.Kind != expected && !(obs.Kind == CompiledEndFall && expected == CompiledJumpTaken && sameTarget(target, iExit)) {
			return true, fmt.Sprintf("interpreter continues at pc %d but compiled code stops at %s", iExit.NextPC, obs.Kind)
		}
		if d, why := compareStackAndTemps(ref, obs); d {
			return true, why
		}
	case interp.ExitMessageSend:
		if obs.Kind != CompiledMessageSend {
			return true, fmt.Sprintf("interpreter sends #%s but compiled code %s", iExit.Selector, obs.Kind)
		}
		if obs.Selector != iExit.Selector || obs.NumArgs != iExit.NumArgs {
			return true, fmt.Sprintf("send mismatch: interpreter #%s/%d, compiled #%s/%d", iExit.Selector, iExit.NumArgs, obs.Selector, obs.NumArgs)
		}
		if d, why := compareStackAndTemps(ref, obs); d {
			return true, why
		}
	case interp.ExitMethodReturn:
		if obs.Kind != CompiledMethodReturn {
			return true, fmt.Sprintf("interpreter returns but compiled code %s", obs.Kind)
		}
		if ref.result != obs.Result {
			return true, fmt.Sprintf("return values differ: interpreter %s, compiled %s", ref.result, obs.Result)
		}
	default:
		return true, fmt.Sprintf("interpreter exit %v has no compiled counterpart", iExit)
	}
	return compareHeap(ref.effects, obs.Heap)
}

// sameTarget reports whether the instruction's jump target coincides with
// its fall-through successor.
func sameTarget(target concolic.Target, iExit interp.Exit) bool {
	op, operands, next, ok := target.Method.FetchOp(0)
	if !ok {
		return false
	}
	var operand byte
	if len(operands) > 0 {
		operand = operands[0]
	}
	off, _, _, isJump := bytecode.JumpOffset(op, operand)
	return isJump && off == 0 && iExit.NextPC == next
}

func compareStackAndTemps(ref *interpRef, obs *CompiledObservation) (bool, string) {
	if !stringSlicesEqual(ref.stack, obs.Stack) {
		return true, fmt.Sprintf("operand stacks differ: interpreter %v, compiled %v", ref.stack, obs.Stack)
	}
	if !stringSlicesEqual(ref.temps, obs.Temps) {
		return true, fmt.Sprintf("temporaries differ: interpreter %v, compiled %v", ref.temps, obs.Temps)
	}
	return false, ""
}

// compareHeap merge-walks the interpreter's and the compiled run's
// input-object effects, both in ascending representative order, and
// reports the lowest representative whose body differs. An object missing
// on the compiled side was never materialized there and is skipped.
func compareHeap(want, got []HeapEffect) (bool, string) {
	j := 0
	for _, w := range want {
		for j < len(got) && got[j].Rep < w.Rep {
			j++
		}
		if j == len(got) || got[j].Rep != w.Rep {
			continue
		}
		if !stringSlicesEqual(w.Body, got[j].Body) {
			return true, fmt.Sprintf("side effects on input object %d differ: interpreter %v, compiled %v", w.Rep, w.Body, got[j].Body)
		}
	}
	return false, ""
}
