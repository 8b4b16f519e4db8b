package jit

// Deterministic allocation gates on the compile hot path: the static
// verifier's per-function analysis and the per-ISA lowering plus
// encoding. Both run for every novel function a campaign or fuzz run
// compiles, so an allocation reintroduced into either shows up here as a
// test failure instead of a few percent of fuzz CPU. Counts are exact
// (testing.AllocsPerRun after a warm-up run), not timings. Under -race
// sync.Pool drops items at random, so the gates are skipped there.

import (
	"fmt"
	"sync"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
	"cogdiff/internal/irverify"
	"cogdiff/internal/machine"
)

var cogitVariants = []Variant{SimpleStackBasedCogit, StackToRegisterCogit, RegisterAllocatingCogit}

// primAddStages compiles the primAdd byte-code under variant v.
func primAddStages(t testing.TB, v Variant) *Stages {
	t.Helper()
	m := &bytecode.Method{Name: "primAdd", Code: []byte{byte(bytecode.OpPrimAdd)}}
	st, err := NewCogit(v, heap.NewBootedObjectMemory(), defects.ProductionVM()).
		CompileBytecode(m, []heap.Word{heap.SmallIntFor(3), heap.SmallIntFor(4)})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAnalyzeAllocs bounds one verifier analysis of a clean function:
// the retained Analysis, its exits and their states. The working arrays
// come from a pool.
func TestAnalyzeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	for _, v := range cogitVariants {
		fn := primAddStages(t, v).IR[0]
		avg := testing.AllocsPerRun(100, func() { irverify.Options{}.Analyze(fn) })
		t.Logf("%s: %.1f allocs/run", v, avg)
		if avg > 4 {
			t.Errorf("%s: Analyze allocates %.1f/run on the primAdd front-end IR, want <= 4", v, avg)
		}
	}
}

// TestLowerEncodeAllocs bounds lowering plus encoding per ISA: the
// assembler's label index and fixups, the instruction slice, the
// program and the code bytes.
func TestLowerEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are gated without -race only")
	}
	for _, v := range cogitVariants {
		st := primAddStages(t, v)
		fn := st.IR[st.Final()]
		for _, isa := range []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like} {
			avg := testing.AllocsPerRun(100, func() {
				p, err := machine.Lower(fn, isa, machine.CodeBase, st.Pool)
				if err == nil {
					_, err = machine.Encode(p, isa)
				}
				if err != nil {
					panic(err)
				}
			})
			t.Logf("%s/%s: %.1f allocs/run", v, isa, avg)
			if avg > 6 {
				t.Errorf("%s/%s: Lower+Encode allocates %.1f/run, want <= 6", v, isa, avg)
			}
		}
	}
}

// TestAnalyzeConcurrent runs analyses of different functions from 8
// goroutines at once, sharing the verifier's pooled working arrays, and
// requires every verdict and pass effect to equal the serial one.
func TestAnalyzeConcurrent(t *testing.T) {
	var fns []*ir.Fn
	for _, v := range cogitVariants {
		st := primAddStages(t, v)
		fns = append(fns, st.IR...)
	}
	// A broken function too, so violations and flow results race as well.
	broken := fns[0].Clone()
	broken.Instrs = broken.Instrs[1:]
	fns = append(fns, broken)
	render := func(fn *ir.Fn) string {
		return fmt.Sprint(irverify.Options{}.Verify(fn), irverify.VerifyPassEffect(fns[0], fn))
	}
	want := make([]string, len(fns))
	for i, fn := range fns {
		want[i] = render(fn)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				i := (g + r) % len(fns)
				if got := render(fns[i]); got != want[i] {
					errs <- fmt.Sprintf("goroutine %d, function %d: got %s, want %s", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
