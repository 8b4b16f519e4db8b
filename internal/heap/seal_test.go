package heap

import (
	"testing"
)

// The arena contract: a sealed object memory, after arbitrary mutation,
// rewinds to a state indistinguishable from a fresh boot — identical
// contents AND identical allocation addresses — in O(words touched), with
// zero allocations. The execution core's pooled environments and the
// compiled-code cache's heap replay both stand on this.

// mutate dirties om in every way an execution can: heap allocation, slot
// stores into pre-seal objects, and user-defined classes.
func mutate(t *testing.T, om *ObjectMemory) {
	t.Helper()
	f, err := om.NewFloat(3.25)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := om.NewArray(f, om.TrueObj, SmallIntFor(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := om.StoreSlot(arr, 1, om.FalseObj); err != nil {
		t.Fatal(err)
	}
	om.DefineClass("Scratch", FormatPointers, 2)
	if _, err := om.NewString("dirty"); err != nil {
		t.Fatal(err)
	}
}

// sameBootState asserts a and b are observationally identical booted
// memories: same watermark, same class table, same heap words, and — the
// address-determinism clincher — the next allocation lands on the same
// oop with the same contents.
func sameBootState(t *testing.T, a, b *ObjectMemory) {
	t.Helper()
	if a.HeapUsed() != b.HeapUsed() {
		t.Fatalf("HeapUsed: %d vs %d", a.HeapUsed(), b.HeapUsed())
	}
	if a.ClassCount() != b.ClassCount() {
		t.Fatalf("ClassCount: %d vs %d", a.ClassCount(), b.ClassCount())
	}
	aw := a.heap.words[:a.HeapUsed()]
	bw := b.heap.words[:b.HeapUsed()]
	for i := range aw {
		if aw[i] != bw[i] {
			t.Fatalf("heap word %d: %#x vs %#x", i, aw[i], bw[i])
		}
	}
	af, err := a.NewFloat(1.5)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := b.NewFloat(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if af != bf {
		t.Fatalf("allocation addresses diverge after reset: %#x vs %#x", af, bf)
	}
}

func TestResetToSealRestoresBootState(t *testing.T) {
	om := NewBootedObjectMemory()
	om.Seal()
	mutate(t, om)
	om.ResetToSeal()
	sameBootState(t, om, NewBootedObjectMemory())
}

func TestResetToSealIsIdempotent(t *testing.T) {
	om := NewBootedObjectMemory()
	om.Seal()
	for i := 0; i < 3; i++ {
		mutate(t, om)
		om.ResetToSeal()
	}
	om.ResetToSeal() // reset with nothing dirty
	sameBootState(t, om, NewBootedObjectMemory())
}

// TestResetToSealAllocFree is an allocation-regression gate: rewinding an
// arena must not allocate, no matter how dirty it is. If this fires, the
// dirty-span bookkeeping regressed and pooled environments lost their
// reason to exist.
func TestResetToSealAllocFree(t *testing.T) {
	om := NewBootedObjectMemory()
	om.Seal()
	if avg := testing.AllocsPerRun(50, func() {
		mutateQuiet(om)
		om.ResetToSeal()
	}); avg > float64(allocsPerMutateQuiet) {
		t.Fatalf("mutate+reset allocates %.1f/run, want <= %d (reset itself must be alloc-free)", avg, allocsPerMutateQuiet)
	}
}

// allocsPerMutateQuiet bounds the Go allocations mutateQuiet itself may
// perform (error paths, class bookkeeping); the reset must add zero.
const allocsPerMutateQuiet = 2

func mutateQuiet(om *ObjectMemory) {
	f, _ := om.NewFloat(3.25)
	arr, _ := om.NewArray(f, om.TrueObj)
	_ = om.StoreSlot(arr, 0, om.FalseObj)
}

func TestAcquireBootedMatchesFreshBoot(t *testing.T) {
	om := AcquireBooted()
	mutate(t, om)
	ReleaseBooted(om)
	got := AcquireBooted()
	defer ReleaseBooted(got)
	sameBootState(t, got, NewBootedObjectMemory())
}

func TestReplayHeapRangeValidatesWatermark(t *testing.T) {
	om := NewBootedObjectMemory()
	om.Seal()
	start := om.HeapUsed()
	if _, err := om.NewFloat(2.5); err != nil {
		t.Fatal(err)
	}
	delta := om.HeapRange(start, om.HeapUsed())

	om.ResetToSeal()
	if err := om.ReplayHeapRange(start+1, delta); err == nil {
		t.Fatal("replay at wrong watermark must fail")
	}
	if err := om.ReplayHeapRange(start, delta); err != nil {
		t.Fatalf("replay at correct watermark: %v", err)
	}

	// The replayed float must read back at the address a fresh
	// allocation would have given it.
	fresh := NewBootedObjectMemory()
	w, err := fresh.NewFloat(2.5)
	if err != nil {
		t.Fatal(err)
	}
	v, err := om.FloatValueOf(w)
	if err != nil {
		t.Fatalf("replayed float not readable at original oop: %v", err)
	}
	if v != 2.5 {
		t.Fatalf("replayed float reads %v, want 2.5", v)
	}

	// A reset must rewind the replayed span like any other allocation.
	om.ResetToSeal()
	if om.HeapUsed() != start {
		t.Fatalf("HeapUsed after reset = %d, want %d", om.HeapUsed(), start)
	}
}
