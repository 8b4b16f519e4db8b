package fuzzer

import (
	"strings"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/core"
	"cogdiff/internal/defects"
	"cogdiff/internal/jit"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
	"cogdiff/internal/telemetry"
)

// TestFuzzOptimizesOncePerSequenceAndCompiler is a deterministic work
// gate: every (sequence, compiler) pair runs the pass pipeline at most
// once — shared by both ISAs and by blame — so the passes a minimizing
// run executes are bounded by one pipeline per compiler per execution,
// reduction executions included.
func TestFuzzOptimizesOncePerSequenceAndCompiler(t *testing.T) {
	if testing.Short() {
		t.Skip("a deterministic work count: the full suite checks it, the -short (race) tier need not")
	}
	reg := telemetry.NewRegistry()
	res, err := Run(Options{Seed: Mix(1, 0), Budget: 600, Minimize: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	execs := res.Executions
	for _, d := range res.Differences {
		execs += d.ReduceExecs
	}
	compilers := len(newEngine(Options{}).compilers)
	pipeline := len(jit.Pipeline(defects.ProductionVM()))
	bound := int64(pipeline * compilers * execs)
	if got := reg.Counter(telemetry.MetricPassesRun).Value(); got > bound {
		t.Fatalf("%d passes run, want at most %d (%d passes x %d compilers x %d executions)",
			got, bound, pipeline, compilers, execs)
	}
}

// discardGenome is `^0.5 bitShift: 3.25` over receiver 2, the 4-byte
// genome 3c 3d 61 8e. Engine seeds Mix(1,0) and Mix(2,0) generate it.
// Its Stack-to-Register optimization succeeds and lowers and runs on
// amd64-like, but the arm32-like lowering cannot encode one of its
// immediates.
func discardGenome() *Seq {
	return &Seq{
		Receiver: IntValue(2),
		Literals: []bytecode.Literal{bytecode.FloatLiteral(0.5), bytecode.FloatLiteral(3.25)},
		Code: []Gene{
			{Op: bytecode.OpPushLiteralConstant0},
			{Op: bytecode.OpPushLiteralConstant0 + 1},
			{Op: bytecode.OpPrimBitShift},
			{Op: bytecode.OpReturnTop},
		},
	}
}

// TestDiscardWholeGenomeWhenOneISAFails pins the discard ordering of the
// optimize-once pipeline: lowering runs per ISA after one shared
// optimization, yet a genome whose lowering fails on any (compiler, ISA)
// pair is still discarded as a whole — counted in Discarded, admitted to
// no corpus and merging no coverage — even though another ISA already
// lowered and ran it.
func TestDiscardWholeGenomeWhenOneISAFails(t *testing.T) {
	s := discardGenome()
	m, in := s.Method("fuzzseq"), s.Input()
	tester := core.NewTester(primitives.NewTable(), defects.ProductionVM())
	st, err := tester.OptimizeSequence(m, in, core.StackToRegisterCompiler, nil)
	if err != nil {
		t.Fatalf("shared optimization: %v", err)
	}
	if _, err := tester.CompiledSequence(st, st.Final(), m, in, machine.ISAAmd64Like, nil); err != nil {
		t.Fatalf("amd64-like pair must lower and run: %v", err)
	}
	_, err = tester.CompiledSequence(st, st.Final(), m, in, machine.ISAArm32Like, nil)
	if err == nil || !strings.Contains(err.Error(), "unencodable on arm32-like") {
		t.Fatalf("arm32-like lowering: got %v, want an unencodable immediate", err)
	}

	e := newEngine(Options{Seed: Mix(1, 0)})
	out := e.execute(s)
	if !out.invalid {
		t.Fatal("a genome failing one (compiler, ISA) pair must be invalid")
	}
	if out.cov.Count() == 0 {
		t.Fatal("the pairs that ran before the failure should have observed coverage")
	}
	e.merge(s, &out, false)
	if e.discarded != 1 {
		t.Errorf("Discarded = %d, want 1", e.discarded)
	}
	if n := e.global.Count(); n != 0 {
		t.Errorf("a discarded genome merged %d coverage bits", n)
	}
	if len(e.corpus) != 0 || len(e.diffs) != 0 {
		t.Errorf("a discarded genome was admitted: corpus %d, differences %d", len(e.corpus), len(e.diffs))
	}
}
