package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"cogdiff"
	"cogdiff/internal/telemetry"
)

// bench-export measures one engine end to end and emits a machine-
// readable benchmark record (BENCH_campaign.json / BENCH_fuzz.json), so
// the perf trajectory of this and future changes lives in versionable
// JSON history instead of prose.

// benchSchema stamps the record layout; bump on field changes.
// Schema 2 (raw-speed overhaul) adds the compiled-code cache hit rate,
// the measured per-path allocation split (warm reuse vs fresh boots),
// and the carried-forward pre-overhaul baseline used by perf-smoke.
// Schema 3 (fifth compiler) adds per-compiler tested-unit counts to
// campaign records, so the perf history distinguishes a four-compiler
// run from a five-compiler one.
// Schema 4 (static IR verification) adds the verifier's cost and
// verdict to campaign records: verifierNsShare is the fraction of
// campaign wall time spent in the static verifier (its own telemetry
// histogram over the measured iterations' wall time), and
// verifierViolations counts static rejections (zero on a sound tree).
// Schema 5 (caches removed) drops the exploration- and code-cache hit
// rates and the cold/warm split, and adds verifierAnalyses: the full
// verifier analyses of one serial campaign in a fresh process.
const benchSchema = "cogdiff-bench/5"

// benchRecord is one exported measurement.
type benchRecord struct {
	Schema     string `json:"schema"`
	Name       string `json:"name"`
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Timestamp  string `json:"timestamp"`
	Iterations int    `json:"iterations"`
	Workers    int    `json:"workers"`

	// NsPerOp and AllocsPerOp average the measured iterations.
	NsPerOp     int64  `json:"nsPerOp"`
	AllocsPerOp uint64 `json:"allocsPerOp"`
	Differences int    `json:"differences"`

	// CompilerUnits maps each compiler in the measured campaign to its
	// tested-instruction count, so a record documents which compiler set
	// produced its numbers. Campaign records only.
	CompilerUnits map[string]int `json:"compilerUnits,omitempty"`

	// Per-path allocation economics, campaign records only: warm is the
	// steady-state cost of testing one more path of an explored unit
	// (pooled environments, shared reference); fresh is the same work
	// booting fresh environments and recomputing the reference per call,
	// re-measured on this machine. A recorded trajectory, not a gate.
	PerPathAllocsWarm     float64 `json:"perPathAllocsWarm,omitempty"`
	PerPathAllocsFresh    float64 `json:"perPathAllocsFresh,omitempty"`
	PerPathAllocReduction float64 `json:"perPathAllocReduction,omitempty"`

	// Verifier economics, campaign records only. VerifierAnalyses counts
	// the full verifier analyses of one serial campaign run first in the
	// process, while the verified-clean cache is empty: a deterministic
	// work counter that -gate-verifier-analyses holds to the committed
	// record. VerifierNsShare is the verifier's self-timed share of the
	// measured iterations' wall time (a CPU share at -workers > 1),
	// recorded but not gated: wall-clock ratios sit inside their own
	// run-to-run noise. VerifierViolations totals static rejections
	// over every run (zero on a sound tree).
	VerifierAnalyses   int64   `json:"verifierAnalyses,omitempty"`
	VerifierNsShare    float64 `json:"verifierNsShare,omitempty"`
	VerifierViolations int64   `json:"verifierViolations,omitempty"`

	// BaselineNsPerOp carries the pre-overhaul wall time for this record's
	// configuration (copied forward from the committed baseline file);
	// BaselineSpeedup is this measurement against it.
	BaselineNsPerOp int64   `json:"baselineNsPerOp,omitempty"`
	BaselineSpeedup float64 `json:"baselineSpeedup,omitempty"`

	// Served-job throughput and latency quantiles, present only for
	// serve records (jobs submitted concurrently over HTTP to an
	// in-process server; latency measured submit-to-terminal).
	JobsPerSec  float64 `json:"jobsPerSec,omitempty"`
	P50NsPerJob int64   `json:"p50NsPerJob,omitempty"`
	P99NsPerJob int64   `json:"p99NsPerJob,omitempty"`
}

func runBenchExport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench-export", flag.ContinueOnError)
	fs.SetOutput(stderr)
	iterations := fs.Int("iterations", 3, "measured iterations")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	baseline := fs.String("baseline", "", "committed BENCH_*.json to gate against (carries the pre-overhaul baselineNsPerOp forward)")
	minBaselineSpeedup := fs.Float64("min-baseline-speedup", 0, "fail unless this run beats the baseline's pre-overhaul time by this factor (requires -baseline)")
	gateVerifierAnalyses := fs.Bool("gate-verifier-analyses", false, "campaign mode: fail if the fresh-process verifier analysis count exceeds the -baseline record's")
	out := fs.String("out", "", "write the JSON record to this file (default stdout)")
	lint := fs.Bool("lint", false, "validate existing BENCH_*.json files instead of measuring")
	fuzzBudget := fs.Int("fuzz-budget", 2000, "fuzz mode: execution budget per iteration")
	serveJobs := fs.Int("serve-jobs", 16, "serve mode: difftest jobs submitted concurrently per iteration")
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cogdiff:", err)
		return 1
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *lint {
		if fs.NArg() == 0 {
			usage(stderr)
			return 2
		}
		for _, path := range fs.Args() {
			if err := lintBenchFile(path); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "%s: OK\n", path)
		}
		return 0
	}
	if fs.NArg() != 1 {
		usage(stderr)
		return 2
	}
	if *iterations < 1 {
		return fail(fmt.Errorf("-iterations %d: must be >= 1", *iterations))
	}
	if err := validateWorkers(*workers); err != nil {
		return fail(err)
	}

	var rec *benchRecord
	var err error
	switch fs.Arg(0) {
	case "campaign":
		rec, err = benchCampaign(*iterations, *workers)
	case "fuzz":
		rec, err = benchFuzz(*iterations, *workers, *fuzzBudget)
	case "serve":
		rec, err = benchServe(*iterations, *workers, *serveJobs)
	default:
		return fail(fmt.Errorf("bench-export %q: want campaign, fuzz or serve", fs.Arg(0)))
	}
	if err != nil {
		return fail(err)
	}
	if rec.Name == "campaign" {
		// Per-path allocation economics, measured on this machine.
		warm, fresh := cogdiff.MeasurePerPathAllocs()
		rec.PerPathAllocsWarm, rec.PerPathAllocsFresh = warm, fresh
		if fresh > 0 {
			rec.PerPathAllocReduction = 1 - warm/fresh
		}
	}
	if *minBaselineSpeedup > 0 && *baseline == "" {
		return fail(fmt.Errorf("bench-export: -min-baseline-speedup requires -baseline"))
	}
	if *gateVerifierAnalyses && (*baseline == "" || rec.Name != "campaign") {
		return fail(fmt.Errorf("bench-export: -gate-verifier-analyses requires -baseline and the campaign mode"))
	}
	if *baseline != "" {
		base, berr := loadBenchBaseline(*baseline, rec.Name)
		if berr != nil {
			return fail(berr)
		}
		// The pre-overhaul time rides along from record to record: once
		// captured it stays the fixed point every future run is gated
		// against, so the speedup cannot silently re-baseline itself.
		rec.BaselineNsPerOp = base.BaselineNsPerOp
		if rec.BaselineNsPerOp == 0 {
			rec.BaselineNsPerOp = base.NsPerOp
		}
		if rec.BaselineNsPerOp > 0 && rec.NsPerOp > 0 {
			rec.BaselineSpeedup = float64(rec.BaselineNsPerOp) / float64(rec.NsPerOp)
		}
		if *minBaselineSpeedup > 0 && rec.BaselineSpeedup < *minBaselineSpeedup {
			return fail(fmt.Errorf("bench-export: %.2fx over the pre-overhaul baseline, required %.2fx (baseline %s, now %s)",
				rec.BaselineSpeedup, *minBaselineSpeedup, time.Duration(rec.BaselineNsPerOp), time.Duration(rec.NsPerOp)))
		}
		if *gateVerifierAnalyses {
			if base.VerifierAnalyses <= 0 {
				return fail(fmt.Errorf("bench-export: %s records no verifierAnalyses to gate against", *baseline))
			}
			if rec.VerifierAnalyses > base.VerifierAnalyses {
				return fail(fmt.Errorf("bench-export: %d full verifier analyses in a fresh serial campaign, the committed record allows %d",
					rec.VerifierAnalyses, base.VerifierAnalyses))
			}
		}
	}
	rec.Schema = benchSchema
	rec.GoVersion = runtime.Version()
	rec.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rec.Timestamp = time.Now().UTC().Format(time.RFC3339) //cogdiff:allow-nondeterminism benchmark timing is the measurement itself
	rec.Iterations = *iterations
	rec.Workers = *workers

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fail(err)
	}
	data = append(data, '\n')
	if *out == "" {
		stdout.Write(data)
		return 0
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s: %s written\n", rec.Name, *out)
	return 0
}

// loadBenchBaseline reads a committed benchmark record to gate against,
// insisting it describe the same engine.
func loadBenchBaseline(path, name string) (*benchRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Name != name {
		return nil, fmt.Errorf("%s: baseline records %q, this run measures %q", path, rec.Name, name)
	}
	if rec.NsPerOp <= 0 && rec.BaselineNsPerOp <= 0 {
		return nil, fmt.Errorf("%s: baseline has no usable nsPerOp", path)
	}
	return &rec, nil
}

// measure runs fn once and returns its wall time and per-process
// allocation count delta.
func measure(fn func() error) (time.Duration, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now() //cogdiff:allow-nondeterminism benchmark timing is the measurement itself
	err := fn()
	elapsed := time.Since(start) //cogdiff:allow-nondeterminism benchmark timing is the measurement itself
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs, err
}

func benchCampaign(iterations, workers int) (*benchRecord, error) {
	rec := &benchRecord{Name: "campaign"}

	// The counting run: one serial campaign, first in the process, so the
	// process-wide verified-clean cache starts empty and the number of
	// full verifier analyses is a deterministic function of the catalog.
	countReg := telemetry.NewRegistry()
	if _, err := cogdiff.RunCampaign(cogdiff.CampaignOptions{Workers: 1, Metrics: countReg}); err != nil {
		return nil, err
	}
	rec.VerifierAnalyses = countReg.Counter(telemetry.MetricIRVerifyAnalyses).Value()
	verifierViolations := countReg.Counter(telemetry.MetricIRVerifyViolations).Value()

	// Measured iterations each get a fresh registry so the verifier's
	// self-timed cost and violation count accumulate over exactly the
	// measured work.
	opts := cogdiff.CampaignOptions{Workers: workers}
	var totalNS int64
	var totalAllocs uint64
	var verifierSeconds float64
	for i := 0; i < iterations; i++ {
		reg := telemetry.NewRegistry()
		opts.Metrics = reg
		var sum *cogdiff.CampaignSummary
		elapsed, allocs, err := measure(func() error {
			var rerr error
			sum, rerr = cogdiff.RunCampaign(opts)
			return rerr
		})
		if err != nil {
			return nil, err
		}
		totalNS += elapsed.Nanoseconds()
		totalAllocs += allocs
		verifierSeconds += reg.Histogram(telemetry.MetricIRVerifySeconds, telemetry.DurationBuckets).Sum()
		verifierViolations += reg.Counter(telemetry.MetricIRVerifyViolations).Value()
		rec.Differences = sum.TotalDifferences
		rec.CompilerUnits = make(map[string]int, len(sum.Rows))
		for _, row := range sum.Rows {
			rec.CompilerUnits[row.Compiler] = row.Instructions
		}
	}
	rec.NsPerOp = totalNS / int64(iterations)
	rec.AllocsPerOp = totalAllocs / uint64(iterations)
	if totalNS > 0 {
		rec.VerifierNsShare = verifierSeconds / (float64(totalNS) / 1e9)
	}
	rec.VerifierViolations = verifierViolations
	return rec, nil
}

func benchFuzz(iterations, workers, budget int) (*benchRecord, error) {
	rec := &benchRecord{Name: "fuzz"}
	var totalNS int64
	var totalAllocs uint64
	for i := 0; i < iterations; i++ {
		var sum *cogdiff.FuzzSummary
		elapsed, allocs, err := measure(func() error {
			var rerr error
			sum, rerr = cogdiff.Fuzz(cogdiff.FuzzOptions{Seed: 2022, Budget: budget, Workers: workers, Minimize: true})
			return rerr
		})
		if err != nil {
			return nil, err
		}
		totalNS += elapsed.Nanoseconds()
		totalAllocs += allocs
		rec.Differences = len(sum.Differences)
	}
	rec.NsPerOp = totalNS / int64(iterations)
	rec.AllocsPerOp = totalAllocs / uint64(iterations)
	return rec, nil
}

// lintBenchFile validates one exported record: parseable JSON, the
// current schema stamp, and sane measurement fields. make bench runs it
// over the BENCH files it just wrote.
func lintBenchFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != benchSchema {
		return fmt.Errorf("%s: schema %q, want %q", path, rec.Schema, benchSchema)
	}
	if rec.Name != "campaign" && rec.Name != "fuzz" && rec.Name != "serve" {
		return fmt.Errorf("%s: name %q, want campaign, fuzz or serve", path, rec.Name)
	}
	if rec.NsPerOp <= 0 {
		return fmt.Errorf("%s: nsPerOp %d, want > 0", path, rec.NsPerOp)
	}
	if rec.Iterations < 1 {
		return fmt.Errorf("%s: iterations %d, want >= 1", path, rec.Iterations)
	}
	if rec.PerPathAllocReduction < 0 || rec.PerPathAllocReduction > 1 {
		return fmt.Errorf("%s: perPathAllocReduction %v outside [0, 1]", path, rec.PerPathAllocReduction)
	}
	if rec.Name == "campaign" && rec.BaselineNsPerOp <= 0 {
		return fmt.Errorf("%s: campaign record carries no baselineNsPerOp (perf-smoke would gate nothing)", path)
	}
	if rec.Name == "campaign" && len(rec.CompilerUnits) == 0 {
		return fmt.Errorf("%s: campaign record names no compilerUnits (schema 3 records which compiler set was measured)", path)
	}
	if rec.VerifierNsShare < 0 || rec.VerifierNsShare > 1 {
		return fmt.Errorf("%s: verifierNsShare %v outside [0, 1]", path, rec.VerifierNsShare)
	}
	if rec.Name == "campaign" && rec.VerifierAnalyses <= 0 {
		return fmt.Errorf("%s: campaign record carries no verifierAnalyses (the verify-smoke gate would gate nothing)", path)
	}
	if rec.VerifierViolations < 0 {
		return fmt.Errorf("%s: verifierViolations %d, want >= 0", path, rec.VerifierViolations)
	}
	if rec.Name == "campaign" && rec.VerifierViolations != 0 {
		return fmt.Errorf("%s: campaign record reports %d verifier violations on the shipped catalog (want 0)", path, rec.VerifierViolations)
	}
	return nil
}
