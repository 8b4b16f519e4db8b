package concolic

import (
	"strings"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/heap"
	"cogdiff/internal/interp"
	"cogdiff/internal/primitives"
	"cogdiff/internal/sym"
	"cogdiff/internal/telemetry"
)

func explore(t *testing.T, target Target) *Exploration {
	t.Helper()
	e := NewExplorer(primitives.NewTable(), DefaultOptions())
	return e.Explore(target)
}

// exitKinds collects the multiset of exit kinds of an exploration.
func exitKinds(ex *Exploration) map[interp.ExitKind]int {
	out := map[interp.ExitKind]int{}
	for _, p := range ex.Paths {
		out[p.Exit.Kind]++
	}
	return out
}

// TestExploreAddBytecode reproduces Table 1 / Fig. 2: the add byte-code has
// the invalid-frame paths (empty and one-element stack), the int+int
// success path, the overflow path, and the three type-mismatch send paths.
func TestExploreAddBytecode(t *testing.T) {
	ex := explore(t, BytecodeTarget(bytecode.OpPrimAdd))
	kinds := exitKinds(ex)

	if kinds[interp.ExitInvalidFrame] == 0 {
		t.Error("missing invalid-frame path")
	}
	if kinds[interp.ExitSuccess] < 2 {
		t.Errorf("expected int and float success paths, got %d", kinds[interp.ExitSuccess])
	}
	if kinds[interp.ExitMessageSend] < 3 {
		t.Errorf("expected overflow + type-mismatch send paths, got %d", kinds[interp.ExitMessageSend])
	}

	// The int+int success path must carry the Table 1 conditions.
	var successPath *PathResult
	for _, p := range ex.Paths {
		if p.Exit.Kind == interp.ExitSuccess && strings.Contains(p.Path.String(), "isIntegerValue") {
			successPath = p
			break
		}
	}
	if successPath == nil {
		t.Fatal("no small-integer success path found")
	}
	s := successPath.Path.String()
	for _, want := range []string{"operand_stack_size >= 2", "isSmallInteger(s0)", "isSmallInteger(s1)", "isIntegerValue"} {
		if !strings.Contains(s, want) {
			t.Errorf("success path misses condition %q: %s", want, s)
		}
	}
	// Its output frame has one element: the sum.
	if successPath.OutputFrame.Size() != 1 {
		t.Errorf("success output stack size %d", successPath.OutputFrame.Size())
	}
	a, _ := successPath.Model.ValueOf(ex.Universe.Stack(0))
	b, _ := successPath.Model.ValueOf(ex.Universe.Stack(1))
	if got := successPath.OutputFrame.Stack[0].W; got != heap.SmallIntFor(a.Int+b.Int) {
		t.Errorf("output %v is not the sum of %d and %d", got, a.Int, b.Int)
	}

	// An overflow path exists: both ints, sum out of range.
	foundOverflow := false
	for _, p := range ex.Paths {
		if p.Exit.Kind != interp.ExitMessageSend {
			continue
		}
		av, aok := p.Model.ValueOf(ex.Universe.Stack(0))
		bv, bok := p.Model.ValueOf(ex.Universe.Stack(1))
		if aok && bok && av.Kind == sym.KindSmallInt && bv.Kind == sym.KindSmallInt &&
			!heap.IsIntegerValue(av.Int+bv.Int) {
			foundOverflow = true
		}
	}
	if !foundOverflow {
		t.Error("no overflow witness discovered")
	}
}

func TestExplorePushConstantSinglePath(t *testing.T) {
	ex := explore(t, BytecodeTarget(bytecode.OpPushConstantOne))
	if len(ex.Paths) != 1 {
		t.Fatalf("pushConstant should have exactly 1 path, got %d", len(ex.Paths))
	}
	if ex.Paths[0].Exit.Kind != interp.ExitSuccess {
		t.Fatalf("exit %v", ex.Paths[0].Exit)
	}
}

func TestExplorePopPaths(t *testing.T) {
	ex := explore(t, BytecodeTarget(bytecode.OpPopStackTop))
	// Two paths: empty stack (invalid frame) and one-element stack.
	kinds := exitKinds(ex)
	if kinds[interp.ExitInvalidFrame] != 1 || kinds[interp.ExitSuccess] != 1 {
		t.Fatalf("pop paths: %v", kinds)
	}
}

func TestExplorePushReceiverVariable(t *testing.T) {
	ex := explore(t, BytecodeTarget(bytecode.OpPushReceiverVariable0+2))
	kinds := exitKinds(ex)
	// Receiver without 3 slots -> invalid memory access; with slots -> success.
	if kinds[interp.ExitInvalidMemoryAccess] == 0 {
		t.Error("missing invalid-memory path")
	}
	if kinds[interp.ExitSuccess] == 0 {
		t.Error("missing success path")
	}
	// The success path's model must give the receiver at least 3 slots.
	for _, p := range ex.Paths {
		if p.Exit.Kind == interp.ExitSuccess {
			tv, ok := p.Model.ValueOf(ex.Universe.Receiver())
			if !ok || tv.SlotCount < 3 {
				t.Errorf("success model receiver: %v (ok=%t)", tv, ok)
			}
		}
	}
}

func TestExploreJumpIfTrue(t *testing.T) {
	ex := explore(t, BytecodeTarget(bytecode.OpShortJumpIfTrue1))
	kinds := exitKinds(ex)
	// Paths: invalid frame, jump on true, fall through on false, and the
	// mustBeBoolean send.
	if kinds[interp.ExitSuccess] < 2 {
		t.Errorf("expected both branch paths: %v", kinds)
	}
	if kinds[interp.ExitMessageSend] != 1 {
		t.Errorf("expected mustBeBoolean path: %v", kinds)
	}
	foundMBB := false
	for _, p := range ex.Paths {
		if p.Exit.Kind == interp.ExitMessageSend && p.Exit.Selector == "mustBeBoolean" {
			foundMBB = true
		}
	}
	if !foundMBB {
		t.Error("mustBeBoolean selector missing")
	}
}

func TestExploreReturnTop(t *testing.T) {
	ex := explore(t, BytecodeTarget(bytecode.OpReturnTop))
	kinds := exitKinds(ex)
	if kinds[interp.ExitMethodReturn] != 1 || kinds[interp.ExitInvalidFrame] != 1 {
		t.Fatalf("returnTop paths: %v", kinds)
	}
}

func TestExplorePushThisContextCurated(t *testing.T) {
	ex := explore(t, BytecodeTarget(bytecode.OpPushThisContext))
	if len(ex.Paths) != 0 || ex.CuratedOut == 0 {
		t.Fatalf("pushThisContext must be curated out: paths=%d curated=%d", len(ex.Paths), ex.CuratedOut)
	}
}

// TestExploreNativeAdd checks the native integer add: bad receiver, bad
// argument, overflow failure, success.
func TestExploreNativeAdd(t *testing.T) {
	ex := explore(t, NativeMethodTarget(primitives.PrimIdxAdd, "primitiveAdd", 1))
	kinds := exitKinds(ex)
	if kinds[interp.ExitSuccess] == 0 {
		t.Error("missing success path")
	}
	if kinds[interp.ExitFailure] < 3 {
		t.Errorf("expected >=3 failure paths (receiver, argument, overflow), got %v", kinds)
	}
	// Failure codes distinguish causes.
	codes := map[int]bool{}
	for _, p := range ex.Paths {
		if p.Exit.Kind == interp.ExitFailure {
			codes[p.Exit.FailCode] = true
		}
	}
	for _, want := range []int{primitives.FailBadReceiver, primitives.FailBadArgument, primitives.FailOutOfRange} {
		if !codes[want] {
			t.Errorf("missing failure code %d; got %v", want, codes)
		}
	}
}

// TestExploreNativeAt covers the bounds-checked at: primitive.
func TestExploreNativeAt(t *testing.T) {
	ex := explore(t, NativeMethodTarget(primitives.PrimIdxAt, "primitiveAt", 1))
	kinds := exitKinds(ex)
	if kinds[interp.ExitSuccess] == 0 {
		t.Errorf("missing success path: %v", kinds)
	}
	if kinds[interp.ExitFailure] < 3 {
		t.Errorf("expected several failure paths, got %v", kinds)
	}
	// The success model must be an indexable receiver with an in-bounds
	// integer index.
	for _, p := range ex.Paths {
		if p.Exit.Kind != interp.ExitSuccess {
			continue
		}
		r, _ := p.Model.ValueOf(ex.Universe.Receiver())
		i, _ := p.Model.ValueOf(ex.Universe.Arg(0))
		if !r.Format.IsIndexable() {
			t.Errorf("success receiver not indexable: %v", r)
		}
		if i.Kind != sym.KindSmallInt || i.Int < 1 || i.Int > int64(r.SlotCount) {
			t.Errorf("success index out of bounds: %v of %v", i, r)
		}
	}
}

// TestExploreBitShiftHasManyPaths checks that deeply guarded instructions
// enumerate their full path fan-out.
func TestExploreBitShiftHasManyPaths(t *testing.T) {
	ex := explore(t, NativeMethodTarget(primitives.PrimIdxBitShift, "primitiveBitShift", 1))
	if len(ex.Paths) < 6 {
		t.Fatalf("bitShift should have many paths, got %d", len(ex.Paths))
	}
}

// TestInputFramesAreCopies verifies §3.2: executing an instruction must not
// mutate the stored input frame.
func TestInputFramesAreCopies(t *testing.T) {
	ex := explore(t, BytecodeTarget(bytecode.OpPrimAdd))
	for _, p := range ex.Paths {
		if p.Exit.Kind != interp.ExitSuccess {
			continue
		}
		if p.InputFrame.Size() == p.OutputFrame.Size() {
			t.Errorf("input frame shares size with output after push/pop: in=%d out=%d",
				p.InputFrame.Size(), p.OutputFrame.Size())
		}
	}
}

// TestExplorationDeterminism: same target explored twice yields identical
// path signatures, which the differential tester relies on for caching.
func TestExplorationDeterminism(t *testing.T) {
	a := explore(t, BytecodeTarget(bytecode.OpPrimAdd))
	b := explore(t, BytecodeTarget(bytecode.OpPrimAdd))
	if len(a.Paths) != len(b.Paths) {
		t.Fatalf("path counts differ: %d vs %d", len(a.Paths), len(b.Paths))
	}
	for i := range a.Paths {
		if a.Paths[i].Path.Signature() != b.Paths[i].Path.Signature() {
			t.Fatalf("path %d signature differs", i)
		}
	}
}

// TestExploreAllocs gates the allocations of one whole exploration of
// the add byte-code (11 paths, 25 solver calls). Path signatures and
// child keys are rendered into reused buffers, and a child's constraint
// list is allocated only when its key is new. It reads 1,573; with
// fmt-built string keys it read 1,879, so a reintroduced formatted key
// fails the 5% headroom. The solver-call count pins that the keys still
// select exactly the same children.
func TestExploreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are gated without -race only")
	}
	reg := telemetry.NewRegistry()
	opts := DefaultOptions()
	opts.Metrics = reg
	e := NewExplorer(primitives.NewTable(), opts)
	target := BytecodeTarget(bytecode.OpPrimAdd)
	ex := e.Explore(target)
	if calls := reg.Snapshot().Counters[telemetry.MetricSolverCalls]; len(ex.Paths) != 11 || calls != 25 {
		t.Fatalf("exploration of primAdd: %d paths and %d solver calls, want 11 and 25", len(ex.Paths), calls)
	}
	if allocs := testing.AllocsPerRun(10, func() { e.Explore(target) }); allocs > 1650 {
		t.Errorf("Explore(primAdd) allocates %.0f times, want <= 1650", allocs)
	}
}
