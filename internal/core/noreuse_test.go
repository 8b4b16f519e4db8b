package core

// In-package determinism tests for the raw-speed reuse layers: pooled
// execution environments and pooled exploration heaps are pure
// optimizations, so a campaign with every layer disabled
// (noReuse) must produce byte-identical results to the default run. The
// rendered-table and worker-count axes live in the external determinism
// tests; this file pins the pools-on/off axis, which needs the unexported
// knob.

import (
	"encoding/json"
	"reflect"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
)

// noReuseConfig is a reduced campaign: big enough to cross every reuse
// layer (interpreter references, compiled runs, blame reruns, exploration
// heaps), small enough to run twice per test.
func noReuseConfig() Config {
	cfg := DefaultConfig()
	cfg.BytecodeFilter = func(op bytecode.Op) bool {
		return op == bytecode.OpPrimAdd || op == bytecode.OpPushConstantOne || op == bytecode.OpPrimLessThan
	}
	cfg.PrimitiveFilter = func(p *primitives.Primitive) bool {
		switch p.Name {
		case "primitiveAdd", "primitiveAsFloat", "primitiveFloatAdd", "primitiveFloatTruncated":
			return true
		}
		return false
	}
	return cfg
}

// reportBytes serializes the verdict structure minus wall-clock fields,
// giving a byte-comparable surface without importing the report package
// (which would cycle).
func reportBytes(t *testing.T, res *CampaignResult) []byte {
	t.Helper()
	norm := make([]CompilerReport, len(res.Reports))
	for i, r := range res.Reports {
		nr := CompilerReport{Compiler: r.Compiler, Instructions: make([]InstructionReport, len(r.Instructions))}
		for j, ir := range r.Instructions {
			ir.ExploreTime = 0
			ir.TestTime = 0
			nr.Instructions[j] = ir
		}
		norm[i] = nr
	}
	b, err := json.Marshal(norm)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCampaignByteIdenticalPoolsOnOff(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := noReuseConfig()
		cfg.Workers = workers
		pooled := NewCampaign(cfg).Run()

		cfg = noReuseConfig()
		cfg.Workers = workers
		cfg.noReuse = true
		fresh := NewCampaign(cfg).Run()

		if pb, fb := reportBytes(t, pooled), reportBytes(t, fresh); string(pb) != string(fb) {
			t.Errorf("workers=%d: reports differ between pooled and noReuse runs", workers)
		}
		if !reflect.DeepEqual(pooled.Causes, fresh.Causes) {
			t.Errorf("workers=%d: cause classification differs between pooled and noReuse runs", workers)
		}
	}
}

// TestUnitRunMatchesTesterTestPath pins the batched entry point: driving
// paths through one UnitRun (shared reference, shared environments) gives
// the same verdicts as the one-shot Tester.TestPath wrapper.
func TestUnitRunMatchesTesterTestPath(t *testing.T) {
	prims := primitives.NewTable()
	explorer := concolic.NewExplorer(prims, concolic.DefaultOptions())
	target := concolic.BytecodeTarget(bytecode.OpPrimAdd)
	ex := explorer.Explore(target)
	tester := NewTester(prims, defects.ProductionVM())

	run := tester.BeginUnit(target, ex)
	defer run.Close()
	for _, p := range ex.Paths {
		for _, isa := range []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like} {
			batched := run.TestPath(p, SimpleBytecodeCompiler, isa)
			oneShot := tester.TestPath(target, ex, p, SimpleBytecodeCompiler, isa)
			if !reflect.DeepEqual(batched, oneShot) {
				t.Fatalf("verdict differs for path %s on %v:\nbatched: %+v\none-shot: %+v", p.Exit, isa, batched, oneShot)
			}
		}
	}
}
