package jit

import (
	"fmt"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/machine"
)

// BenchmarkCompile measures front-end-to-machine-code compilation of a
// representative byte-code (primAdd: tagged fast path, overflow checks and
// a slow-path send) per variant and ISA: the ISA-free optimization plus
// one lowering. EXPERIMENTS.md records the before/after numbers across
// the IR-pipeline refactor.
func BenchmarkCompile(b *testing.B) {
	om := heap.NewBootedObjectMemory()
	m := &bytecode.Method{Name: "bench", Code: []byte{byte(bytecode.OpPrimAdd)}}
	input := []heap.Word{heap.SmallIntFor(3), heap.SmallIntFor(4)}
	for _, v := range []Variant{SimpleStackBasedCogit, StackToRegisterCogit, RegisterAllocatingCogit} {
		for _, isa := range []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like} {
			b.Run(fmt.Sprintf("%s/%s", v, isa), func(b *testing.B) {
				cogit := NewCogit(v, om, defects.ProductionVM())
				for i := 0; i < b.N; i++ {
					st, err := cogit.CompileBytecode(m, input)
					if err == nil {
						_, err = st.Lower(st.Final(), isa)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
