package main

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"cogdiff/internal/core"
	"cogdiff/internal/defects"
	"cogdiff/internal/fuzzer"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
	"cogdiff/internal/telemetry"
)

const (
	// fuzzBudget is the execution budget of one fuzz run.
	fuzzBudget = 600
	// fuzzSeeds is how many engine seeds one benchmark seed expands to.
	// One engine seed's run costs up to a fifth more or less than
	// another's, so a run spreads its median over many of them; it runs
	// each at least twice so reports can be compared.
	fuzzSeeds = 40
)

// childFuzz runs one seeded fuzz run as `cogdiff fuzz -workers 1
// -minimize` does, timed through the rendered report. With check it
// also replays every reduced sequence, outside the timing. A traced run
// runs the same call under the CPU profiler, with a telemetry registry
// attached, and reports the layer split and the program's own counters.
func childFuzz(seed int64, budget int, check, traced bool) (*childOut, error) {
	opts := fuzzer.Options{Seed: seed, Budget: budget, Workers: 1, Minimize: true}
	var reg *telemetry.Registry
	if traced {
		reg = telemetry.NewRegistry()
		opts.Metrics = reg
	}
	var res *fuzzer.Result
	var report string
	var op time.Duration
	var cpu float64
	run := func() (err error) {
		cpu0, start := cpuSeconds(), time.Now()
		if res, err = fuzzer.Run(opts); err != nil {
			return err
		}
		report = fuzzer.Report(res)
		op, cpu = time.Since(start), cpuSeconds()-cpu0
		return nil
	}
	before := sampleRuntime()
	var layers map[layer]float64
	var err error
	if traced {
		layers, err = profiled(func() (time.Duration, error) { err := run(); return op, err })
	} else {
		err = run()
	}
	if err != nil {
		return nil, err
	}
	mallocs, gcShare := runtimeDelta(before, sampleRuntime())
	out := &childOut{CPUS: cpu, OpS: op.Seconds(), Mallocs: mallocs, GCShare: gcShare, Output: report, Layers: layers}
	if traced {
		out.Counts = registryCounts(reg)
		for _, d := range res.Differences {
			out.Counts["fuzzer.reduce_execs"] += int64(d.ReduceExecs)
		}
	}
	if check {
		out.Replay = replayReduced(res.Differences)
	}
	return out, nil
}

// replayReduced checks that every reduced sequence still triggers its
// difference cause when run again through Tester.InterpSequence and
// Tester.CompiledSequence on some (compiler, ISA) pair. It returns the
// failures, or "" when all reproduce.
func replayReduced(diffs []*fuzzer.Difference) string {
	tester := core.NewTester(primitives.NewTable(), defects.ProductionVM())
	var failures string
	for _, d := range diffs {
		if d.Reduced == nil {
			failures += fmt.Sprintf("%s: not reduced; ", d.Key())
			continue
		}
		if !reproduces(tester, d) {
			failures += fmt.Sprintf("%s: reduced sequence no longer differs; ", d.Key())
		}
	}
	return failures
}

var isas = []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like}

func reproduces(tester *core.Tester, d *fuzzer.Difference) (ok bool) {
	defer func() {
		// A contained-panic cause reproduces by panicking again.
		if p := recover(); p != nil {
			ok = d.Cause == "panic"
		}
	}()
	m := d.Reduced.Method("fuzzseq")
	in := d.Reduced.Input()
	for _, kind := range []core.CompilerKind{core.SimpleBytecodeCompiler, core.StackToRegisterCompiler, core.RegisterAllocatingCompiler} {
		for _, isa := range isas {
			v, err := tester.TestSequence(m, in, kind, isa)
			if err != nil || !v.Differs {
				continue
			}
			instrument, fam := core.ClassifySequence(v)
			if instrument+"|"+fam.String()+"|"+v.Cause == d.Key() {
				return true
			}
		}
	}
	return false
}

// fuzzWorkload measures seeded fuzz runs, each in a fresh process. The
// benchmark seed expands to fuzzSeeds engine seeds; every round runs each
// once, and the run ends after the first whole round past its seconds.
// Round one replays the reduced sequences; later rounds must reproduce
// round one's report byte for byte.
func fuzzWorkload(r *run, seed int64, traced bool) error {
	seeds := make([]int64, fuzzSeeds)
	for i := range seeds {
		seeds[i] = fuzzer.Mix(seed, int64(i))
	}
	if traced {
		return fuzzTraced(r, seeds[0])
	}
	budget := strconv.Itoa(fuzzBudget)
	reports := map[int64]string{}
	var setup, cpu, wall, rss, cal []float64
	last := map[int64]float64{}
	deadline := time.Now().Add(r.seconds)
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		for _, s := range seeds {
			mode := "fuzz"
			if round == 0 {
				mode = "fuzz-check"
			}
			if round%2 == 0 {
				delete(last, s)
			}
			out, mb, err := spawn(mode, strconv.FormatInt(s, 10), budget)
			if err == nil {
				err = checkFuzz(out, reports, s)
			}
			r.attempt(err)
			if err != nil {
				continue
			}
			setup = append(setup, calibrated(out.SetupS, out.CalS))
			cpu = append(cpu, out.CPUS)
			// Rounds pair up per engine seed (0 and 1, 2 and 3, ...), and
			// each pair counts with its cheaper run: a fixed group size, so
			// the estimate does not drift lower when more rounds fit in.
			c := calibrated(out.CPUS, out.CalS)
			if round%2 == 0 {
				last[s] = c
			} else if prev, ok := last[s]; ok {
				cal = append(cal, min(prev, c))
			}
			wall = append(wall, out.OpS)
			rss = append(rss, mb)
		}
		if r.res.Failed > 3 {
			break
		}
	}
	if len(cal) == 0 {
		return fmt.Errorf("no fuzz run completed twice")
	}
	r.set("setup_s", "s", median(setup))
	r.set("cal_cpu_ms", "ms", 1000*median(cal))
	r.set("rss_mb", "MiB", median(rss))
	fmt.Fprintf(os.Stderr, "perfbench: fuzz: %d runs, uncalibrated CPU p50 %.1f ms, wall p50 %.1f ms, p90 %.1f ms, %.0f execs/s\n",
		len(wall), 1000*median(cpu), 1000*median(wall), 1000*quantile(wall, 0.9), fuzzBudget/median(wall))
	return nil
}

// checkFuzz is the fuzz oracle: reduced sequences replay, and every run of
// one seed renders the same report.
func checkFuzz(out *childOut, reports map[int64]string, seed int64) error {
	if out.Replay != "" {
		return fmt.Errorf("fuzz seed %d: %s", seed, out.Replay)
	}
	if want, ok := reports[seed]; ok && want != out.Output {
		return fmt.Errorf("fuzz seed %d: report differs from the first run of the seed", seed)
	}
	reports[seed] = out.Output
	return nil
}

// fuzzTraced alternates untraced and traced fresh-process runs of one
// seed; the traced report must equal the untraced one and traced counts
// must repeat exactly.
func fuzzTraced(r *run, seed int64) error {
	args := []string{strconv.FormatInt(seed, 10), strconv.Itoa(fuzzBudget)}
	reports := map[int64]string{}
	var untraced, traced, mallocs, gc []float64
	var first map[string]int64
	var sum traceSum
	deadline := time.Now().Add(r.seconds)
	for len(traced) < 2 || time.Now().Before(deadline) {
		mode := "fuzz"
		if len(untraced) == 0 {
			mode = "fuzz-check"
		}
		u, _, err := spawn(mode, args...)
		if err == nil {
			err = checkFuzz(u, reports, seed)
		}
		r.attempt(err)
		if err == nil {
			untraced = append(untraced, u.OpS)
			mallocs = append(mallocs, u.Mallocs/fuzzBudget)
			gc = append(gc, u.GCShare)
		}
		t, _, err := spawn("fuzz-traced", args...)
		if err == nil {
			err = checkFuzz(t, reports, seed)
		}
		if err == nil && first != nil {
			err = sameCounts(t.Counts, first, "first traced run")
		}
		r.attempt(err)
		if err == nil {
			if first == nil {
				first = t.Counts
			}
			traced = append(traced, t.OpS)
			sum.add(t, 1)
		}
		if r.res.Failed > 3 {
			break
		}
	}
	if len(traced) == 0 || len(untraced) == 0 {
		return nil
	}
	setLayerMetrics(r, &sum, lFuzzer, median(untraced), median(traced), median(mallocs), median(gc))
	return nil
}
