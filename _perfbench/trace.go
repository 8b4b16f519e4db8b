package main

import (
	"fmt"
	"sort"
	"strings"

	"cogdiff/internal/telemetry"
)

// layer is one layer of the differential pipeline in the traced split.
// The names are the repository's module names; each maps to the
// per-layer metric that carries its profiled time.
type layer int

const (
	lExplore layer = iota
	lFrame
	lInterp
	lFrontend
	lMetaFrontend
	lDeadPushPop
	lConstFold
	lPeephole
	lVerify
	lLower
	lEncode
	lRun
	lCore
	lFuzzer
	lServerJob
	lServerHTTP
	// lRest is CPU time with no program frame on the stack: the garbage
	// collector's background workers, the scheduler, the benchmark's own
	// code. It is reported as the workload's self layer (core or fuzzer)
	// and it is what trace.coverage leaves out.
	lRest
	numLayers
)

var layerMetric = [numLayers]string{
	lExplore:      "concolic.explore_s",
	lFrame:        "concolic.frame_s",
	lInterp:       "interp.reference_s",
	lFrontend:     "jit.frontend_s",
	lMetaFrontend: "metacompile.frontend_s",
	lDeadPushPop:  "ir.deadpushpop_s",
	lConstFold:    "ir.constfold_s",
	lPeephole:     "ir.peephole_s",
	lVerify:       "irverify.verify_s",
	lLower:        "machine.lower_s",
	lEncode:       "machine.encode_s",
	lRun:          "machine.run_s",
	lCore:         "core.self_s",
	lFuzzer:       "fuzzer.self_s",
	lServerJob:    "server.job_s",
	lServerHTTP:   "server.http_s",
}

type marker struct {
	prefix string // function-name prefix, or a substring when contains is set
	l      layer
	// contains matches the pattern anywhere in the name: pass bodies are
	// closures whose names depend on where they were inlined
	// (ir.ConstFold.func1, jit.init.func3.ConstFold.1).
	contains bool
}

func (m marker) match(fn string) bool {
	if m.contains {
		return strings.Contains(fn, m.prefix)
	}
	return strings.HasPrefix(fn, m.prefix)
}

const pkg = "cogdiff/internal/"

// phaseMarkers name the entry points of the pipeline's phases. The
// outermost one on a stack decides the phase: the interpreter the
// explorer runs belongs to exploration, the explorer the meta-compiler
// runs to the meta-compiled front-end.
var phaseMarkers = []marker{
	{prefix: pkg + "concolic.(*Explorer)", l: lExplore},
	{prefix: pkg + "concolic.(*FrameBuilder).BuildFrame", l: lFrame},
	{prefix: pkg + "metacompile.", l: lMetaFrontend},
	{prefix: pkg + "interp.RunInstruction", l: lInterp},
	{prefix: pkg + "interp.RunPrimitive", l: lInterp},
	{prefix: pkg + "core.(*Tester).InterpSequence", l: lInterp},
	{prefix: pkg + "core.(*Tester).interpSequenceIn", l: lInterp},
	{prefix: pkg + "jit.", l: lFrontend},
	{prefix: pkg + "machine.(*CPU).Run", l: lRun},
}

// stageMarkers name the stages inside jit.Backend.Finish. The innermost
// one on a stack wins over any phase: passes, verification, lowering and
// encoding run the same code under every front-end.
var stageMarkers = []marker{
	{prefix: "DeadPushPop.", l: lDeadPushPop, contains: true},
	{prefix: "ConstFold.", l: lConstFold, contains: true},
	{prefix: "Peephole.", l: lPeephole, contains: true},
	{prefix: pkg + "irverify.", l: lVerify},
	{prefix: pkg + "jit.(*stageVerifier)", l: lVerify},
	{prefix: pkg + "jit.hashFn", l: lVerify},
	{prefix: pkg + "jit.verifiedClean", l: lVerify},
	{prefix: pkg + "jit.recordVerifiedClean", l: lVerify},
	{prefix: pkg + "jit.sameInstrs", l: lVerify},
	{prefix: pkg + "machine.Lower", l: lLower},
	{prefix: pkg + "machine.Encode", l: lEncode},
}

// classify assigns one sampled stack (leaf first) to a layer: the
// innermost stage marker, else the outermost phase marker, else the
// innermost frame of a self layer (core, fuzzer, server), else lRest.
// Frames of shared substrate packages (heap, bytecode, sym, solver, ...)
// and of the Go runtime count for the layer that called them.
func classify(stack []string) layer {
	for _, fn := range stack {
		for _, m := range stageMarkers {
			if m.match(fn) {
				return m.l
			}
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		for _, m := range phaseMarkers {
			if m.match(stack[i]) {
				return m.l
			}
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "net/http.") || strings.HasPrefix(fn, "net.") ||
			strings.HasPrefix(fn, "internal/poll.") || strings.HasPrefix(fn, pkg+"server/client.") {
			return lServerHTTP
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, pkg+"fuzzer."):
			return lFuzzer
		case strings.HasPrefix(fn, pkg+"server."):
			return lServerJob
		case strings.HasPrefix(fn, pkg), strings.HasPrefix(fn, "cogdiff."):
			return lCore
		}
	}
	return lRest
}

// perLayer lists every per-layer metric with its unit, in the order
// BENCHMARK.json declares them. A traced run reports all of them; a layer
// a workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"concolic.explore_s", "s"}, {"concolic.paths", "count"}, {"solver.calls", "count"},
	{"concolic.frame_s", "s"},
	{"interp.reference_s", "s"},
	{"jit.frontend_s", "s"}, {"jit.compiles", "count"}, {"jit.compiles_per_path", "ratio"},
	{"metacompile.frontend_s", "s"},
	{"ir.deadpushpop_s", "s"}, {"ir.constfold_s", "s"}, {"ir.peephole_s", "s"}, {"ir.pass_runs", "count"},
	{"irverify.verify_s", "s"}, {"irverify.runs", "count"}, {"irverify.violations", "count"},
	{"machine.lower_s", "s"}, {"machine.encode_s", "s"}, {"machine.run_s", "s"},
	{"codecache.hit_ratio", "ratio"},
	{"core.self_s", "s"}, {"core.differences", "count"},
	{"fuzzer.self_s", "s"}, {"fuzzer.reduce_execs", "count"}, {"fuzzer.admit_ratio", "ratio"},
	{"fuzzer.discard_ratio", "ratio"},
	{"server.queue_s", "s"}, {"server.job_s", "s"}, {"server.http_s", "s"}, {"server.max_backlog", "count"},
	{"server.missing_done_events", "count"},
	{"runtime.allocs_per_op", "count"}, {"runtime.gc_share", "ratio"},
	{"trace.wall_s", "s"}, {"trace.coverage", "ratio"}, {"trace.overhead", "ratio"},
}

// registryCounts reads the program's own counters from its telemetry
// registry, labelled series summed per metric.
func registryCounts(reg *telemetry.Registry) map[string]int64 {
	byMetric := map[string]int64{}
	for k, v := range reg.Snapshot().Counters {
		if i := strings.IndexByte(k, '{'); i >= 0 {
			k = k[:i]
		}
		byMetric[k] += v
	}
	c := func(name string) int64 { return byMetric[name] }
	return map[string]int64{
		"concolic.paths":      c(telemetry.MetricPathsExplored),
		"solver.calls":        c(telemetry.MetricSolverCalls),
		"jit.compiles":        c(telemetry.MetricUnitsCompiled),
		"ir.pass_runs":        c(telemetry.MetricPassesRun),
		"irverify.runs":       c(telemetry.MetricIRVerifyRuns),
		"irverify.violations": c(telemetry.MetricIRVerifyViolations),
		"codecache.hits":      c(telemetry.MetricCodeCacheHits),
		"codecache.misses":    c(telemetry.MetricCodeCacheMisses),
		"core.differences":    c(telemetry.MetricDifferences) + c(telemetry.MetricFuzzDifferences),
		"fuzzer.execs":        c(telemetry.MetricFuzzExecs),
		"fuzzer.discarded":    c(telemetry.MetricFuzzDiscarded),
		"fuzzer.admitted":     c(telemetry.MetricFuzzCorpusAdmissions),
	}
}

// sameCounts fails when any count present in both maps differs. Every
// traced campaign and fuzz run must repeat the first one's counts exactly;
// later changes may cite them as exact work counts.
func sameCounts(got, want map[string]int64, what string) error {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if g, ok := got[k]; ok && g != want[k] {
			return fmt.Errorf("traced count %s = %d, %s has %d", k, g, what, want[k])
		}
	}
	return nil
}

// traceSum accumulates traced operations: wall seconds per layer and the
// program's counts, summed over ops operations.
type traceSum struct {
	s      [numLayers]float64
	counts map[string]int64
	ops    float64
}

// add folds in one traced child's report, which covers ops operations.
func (t *traceSum) add(out *childOut, ops float64) {
	for l, s := range out.Layers {
		if l >= 0 && l < numLayers {
			t.s[l] += s
		}
	}
	if t.counts == nil {
		t.counts = map[string]int64{}
	}
	for k, v := range out.Counts {
		t.counts[k] += v
	}
	t.ops += ops
}

// setLayerMetrics reports the per-operation layer split, with lRest
// folded into self, the per-operation counts and the derived ratios.
// untracedWall and tracedWall are the median wall times of one operation
// without and with the profiler.
func setLayerMetrics(r *run, t *traceSum, self layer, untracedWall, tracedWall, mallocsPerOp, gcShare float64) {
	if t.ops == 0 {
		return
	}
	var total float64
	for l := layer(0); l < numLayers; l++ {
		total += t.s[l]
	}
	for l := layer(0); l < lRest; l++ {
		s := t.s[l]
		if l == self {
			s += t.s[lRest]
		}
		r.set(layerMetric[l], "s", s/t.ops)
	}
	c := t.counts
	per := func(k string) float64 { return float64(c[k]) / t.ops }
	for _, m := range perLayer {
		if _, ok := c[m.name]; ok {
			r.set(m.name, m.unit, per(m.name))
		}
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.set("jit.compiles_per_path", "ratio", ratio(c["jit.compiles"], c["core.curated_paths"]))
	r.set("codecache.hit_ratio", "ratio", ratio(c["codecache.hits"], c["codecache.hits"]+c["codecache.misses"]))
	r.set("fuzzer.admit_ratio", "ratio", ratio(c["fuzzer.admitted"], c["fuzzer.execs"]))
	r.set("fuzzer.discard_ratio", "ratio", ratio(c["fuzzer.discarded"], c["fuzzer.execs"]))
	r.set("runtime.allocs_per_op", "count", mallocsPerOp)
	r.set("runtime.gc_share", "ratio", gcShare)
	r.set("trace.wall_s", "s", total/t.ops)
	if total > 0 {
		r.set("trace.coverage", "ratio", 1-t.s[lRest]/total)
	}
	if untracedWall > 0 {
		r.set("trace.overhead", "ratio", tracedWall/untracedWall-1)
	}
}
