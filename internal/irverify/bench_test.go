package irverify_test

import (
	"testing"

	"cogdiff/internal/concolic"
	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
	"cogdiff/internal/irverify"
)

// BenchmarkAnalyze measures the verifier alone: one op analyzes every
// stage (front-end and after each pass) of the equivalence corpus's
// units, so each analysis is of a distinct function. Calling Analyze
// directly bypasses the compile pipeline's verified-clean cache, which
// BenchmarkCompile in internal/jit hits after its first op.
func BenchmarkAnalyze(b *testing.B) {
	type unit struct {
		opts irverify.Options
		fn   *ir.Fn
	}
	var units []unit
	input := []heap.Word{heap.SmallIntFor(3), heap.SmallIntFor(4), heap.SmallIntFor(-2)}
	for _, op := range equivalenceOps {
		target := concolic.BytecodeTarget(op)
		for _, c := range equivalenceCompilers() {
			st, err := c.compile(heap.NewBootedObjectMemory(), target.Method, input)
			if err != nil {
				continue
			}
			for _, fn := range st.IR {
				units = append(units, unit{c.opts, fn})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range units {
			u.opts.Analyze(u.fn)
		}
	}
}
