package main

// Golden-file tests pin the CLI's table output — report formatting and
// campaign counts — against regressions. Regenerate after an intentional
// format change with:
//
//	go test ./cmd/cogdiff/ -run TestGolden -update

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cogdiff/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("cogdiff %v exited %d: %s", args, code, stderr.String())
	}
	return stdout.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("%s drifted from golden file %s\n--- golden ---\n%s\n--- got ---\n%s", name, path, want, got)
	}
}

func TestGoldenTable1(t *testing.T) {
	checkGolden(t, "table1.golden", runCLI(t, "table1"))
}

func TestGoldenIR(t *testing.T) {
	// Pins the three-layer compilation dump: front-end IR, the IR after
	// each pass, and the lowered program per ISA.
	checkGolden(t, "ir.golden", runCLI(t, "ir", "primAdd", "simple"))
}

func TestGoldenCampaignTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign goldens skipped in -short mode")
	}
	// The same golden must match at every worker count: this is the
	// deterministic-merge guarantee observed from the CLI.
	checkGolden(t, "table2.golden", runCLI(t, "table2", "-workers", "1"))
	checkGolden(t, "table2.golden", runCLI(t, "table2", "-workers", "4"))
	checkGolden(t, "table3.golden", runCLI(t, "table3", "-workers", "0"))
}

func TestGoldenFuzzReport(t *testing.T) {
	// The fuzz report is golden-pinned AND must match at every worker
	// count: the canonical-order merge means the report never depends on
	// scheduling.
	args := []string{"fuzz", "-seed", "2022", "-budget", "300", "-seed-corpus",
		filepath.Join("..", "..", "internal", "core", "testdata", "fuzz", "FuzzSequenceDiff")}
	checkGolden(t, "fuzz.golden", runCLI(t, append(args, "-workers", "1")...))
	checkGolden(t, "fuzz.golden", runCLI(t, append(args, "-workers", "4")...))
}

// TestGoldenVerifyIR pins the compile-only verification sweep: the whole
// catalog, all five compilers, both ISAs, zero violations — and the
// report byte-identical at every worker count.
func TestGoldenVerifyIR(t *testing.T) {
	if testing.Short() {
		t.Skip("full verify-ir sweep skipped in -short mode")
	}
	checkGolden(t, "verifyir.golden", runCLI(t, "verify-ir", "-workers", "1"))
	checkGolden(t, "verifyir.golden", runCLI(t, "verify-ir", "-workers", "4"))
}

// TestGoldenVerifyIRStackLeak pins the verifier-targeted seeded defect
// being caught statically: the sweep exits 1 (it is a gate) and every
// violation carries the exact pass-level blame string.
func TestGoldenVerifyIRStackLeak(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"verify-ir", "-defect-verify-stackleak", "-compilers", "simple", "-workers", "4"}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("cogdiff %v exited %d, want 1 (violations gate the run); stderr: %s", args, code, stderr.String())
	}
	out := stdout.String()
	if !bytes.Contains([]byte(out), []byte("ir-verify:stack-balance after pass:peephole")) {
		t.Fatalf("sweep output missing the static blame string:\n%s", out)
	}
	checkGolden(t, "verifyir_stackleak.golden", out)
}

// TestGoldenDifftestStackLeak pins the static verdict surface of the
// differential tester: with the seeded stack leak, difftest reports the
// difference with verifier blame — established without executing the
// broken code.
func TestGoldenDifftestStackLeak(t *testing.T) {
	checkGolden(t, "difftest_stackleak.golden",
		runCLI(t, "difftest", "-defect-verify-stackleak", "primAdd", "simple"))
}

func TestFuzzEmitTests(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fuzz_regress_test.go")
	runCLI(t, "fuzz", "-seed", "2022", "-budget", "200", "-emit-tests", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DO NOT EDIT", "package core_test", "func TestFuzzRegress", "tester.TestSequence"} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("emitted test file missing %q", want)
		}
	}
}

func TestFuzzBudgetFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"fuzz", "-budget", "not-a-budget"}, &stdout, &stderr); code != 1 {
		t.Errorf("malformed -budget: exit %d, want 1", code)
	}
}

// runCLIError runs an invocation that must fail with exit 1 and returns
// its stderr, so the error messages can be golden-pinned.
func runCLIError(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("cogdiff %v exited %d, want 1; stderr: %s", args, code, stderr.String())
	}
	return stderr.String()
}

// TestGoldenFlagValidationErrors pins the numeric-flag validation
// messages: negative worker counts and nonpositive or malformed budgets
// must be rejected before any work starts.
func TestGoldenFlagValidationErrors(t *testing.T) {
	checkGolden(t, "err_workers_negative.golden",
		runCLIError(t, "campaign", "-workers", "-1"))
	checkGolden(t, "err_fuzz_workers_negative.golden",
		runCLIError(t, "fuzz", "-workers", "-3"))
	checkGolden(t, "err_budget_zero.golden",
		runCLIError(t, "fuzz", "-budget", "0"))
	checkGolden(t, "err_budget_negative.golden",
		runCLIError(t, "fuzz", "-budget", "-10"))
	checkGolden(t, "err_budget_negative_duration.golden",
		runCLIError(t, "fuzz", "-budget", "-5s"))
	checkGolden(t, "err_budget_malformed.golden",
		runCLIError(t, "fuzz", "-budget", "not-a-budget"))
	checkGolden(t, "err_metrics_format.golden",
		runCLIError(t, "fuzz", "-budget", "10", "-metrics", "x.prom", "-metrics-format", "xml"))
}

// TestMetricsSnapshotAndLint runs a small fuzzing campaign with a
// Prometheus metrics file, validates it with the metrics-lint verb, and
// checks the JSON format parses too.
func TestMetricsSnapshotAndLint(t *testing.T) {
	dir := t.TempDir()
	prom := filepath.Join(dir, "fuzz.prom")
	runCLI(t, "fuzz", "-seed", "2022", "-budget", "200", "-metrics", prom)
	lint := runCLI(t, "metrics-lint", prom)
	if !bytes.Contains([]byte(lint), []byte("samples OK")) {
		t.Errorf("metrics-lint output %q", lint)
	}

	jsonPath := filepath.Join(dir, "fuzz.json")
	runCLI(t, "fuzz", "-seed", "2022", "-budget", "200", "-metrics", jsonPath, "-metrics-format", "json")
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("JSON snapshot does not parse: %v", err)
	}
	for _, section := range []string{"counters", "gauges", "histograms"} {
		if _, ok := snap[section]; !ok {
			t.Errorf("JSON snapshot missing %q section", section)
		}
	}

	// A corrupted file must fail the lint.
	bad := filepath.Join(dir, "bad.prom")
	if err := os.WriteFile(bad, []byte("cogdiff_x{ 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"metrics-lint", bad}, &stdout, &stderr); code != 1 {
		t.Errorf("metrics-lint on a malformed file: exit %d, want 1", code)
	}
}

// TestTraceAndReportUnperturbed checks -trace writes a JSON event list
// and that enabling every observability output leaves the printed report
// byte-identical.
func TestTraceAndReportUnperturbed(t *testing.T) {
	dir := t.TempDir()
	plain := runCLI(t, "fuzz", "-seed", "2022", "-budget", "200")
	trace := filepath.Join(dir, "trace.json")
	prom := filepath.Join(dir, "m.prom")
	observed := runCLI(t, "fuzz", "-seed", "2022", "-budget", "200",
		"-metrics", prom, "-trace", trace)
	if plain != observed {
		t.Errorf("telemetry perturbed the fuzz report:\n--- plain ---\n%s\n--- observed ---\n%s", plain, observed)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace does not parse as a JSON event list: %v", err)
	}
}

func TestCLIUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no arguments: exit %d, want 2", code)
	}
	// Unknown verbs, and any argument to the verbs that take none, get
	// usage and exit 2 instead of a report the arguments did not shape.
	for _, args := range [][]string{
		{"bogus"},
		{"bench-export", "campaign"},
		{"table1", "-workers", "-3"},
		{"table1", "-compilers", "bogus"},
		{"instructions", "extra"},
	} {
		stdout.Reset()
		stderr.Reset()
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || !bytes.Contains(stderr.Bytes(), []byte("usage:")) {
			t.Errorf("cogdiff %v: exit %d, %d bytes of report, stderr %q; want exit 2 with usage", args, code, stdout.Len(), stderr.String())
		}
	}
	// Errors from the library reach stderr with exactly one "cogdiff:"
	// prefix and exit 1.
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"explore", "noSuchInstruction"}, `cogdiff: unknown instruction "noSuchInstruction" (see Instructions())`},
		{[]string{"difftest", "noSuchInstruction", "simple"}, `cogdiff: unknown instruction "noSuchInstruction" (see Instructions())`},
		{[]string{"difftest", "primAdd", "stacktoreg"}, `cogdiff: unknown compiler "stacktoreg"`},
		{[]string{"campaign", "-compilers", "simple,+metajit"}, `cogdiff: compiler spec "simple,+metajit" mixes additions (+name) with an exact list`},
		{[]string{"fuzz", "-compilers", "native"}, `cogdiff: the native compiler does not compile sequences`},
		{[]string{"fuzz", "-compilers", "+native"}, `cogdiff: the native compiler does not compile sequences`},
	} {
		stdout.Reset()
		stderr.Reset()
		if code := run(c.args, &stdout, &stderr); code != 1 || stderr.String() != c.want+"\n" {
			t.Errorf("cogdiff %v: exit %d, stderr %q; want exit 1, stderr %q", c.args, code, stderr.String(), c.want+"\n")
		}
	}
}

// TestDifftestCacheRoundTrip checks the concolic JSON round trip from
// the CLI (§5.4 reuse): difftest over an exploration written by
// `explore -o` and read back with -cache-file prints exactly what a
// difftest that explores afresh prints.
func TestDifftestCacheRoundTrip(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "primAdd.json")
	runCLI(t, "explore", "-o", cache, "primAdd")
	plain := runCLI(t, "difftest", "primAdd", "simple")
	cached := runCLI(t, "difftest", "-cache-file", cache, "simple")
	if plain != cached {
		t.Errorf("difftest output depends on the exploration's origin:\n--- fresh ---\n%s--- -cache-file ---\n%s", plain, cached)
	}
}

// TestGoldenCampaignProgressLine pins the -progress status line by
// rendering a snapshot with known counter values.
func TestGoldenCampaignProgressLine(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter(telemetry.MetricPathsExplored).Add(120)
	reg.Counter(telemetry.MetricUnitsTested).Add(40)
	reg.Counter(telemetry.MetricDifferences).Add(7)
	reg.Counter(telemetry.MetricPanicsContained).Add(1)
	checkGolden(t, "progress_campaign.golden", renderCampaignProgress(reg.Snapshot())+"\n")
}

// TestUsageListsEveryFlag runs every verb that parses flags with -h and
// checks that each flag its FlagSet prints is documented for that verb in
// usage(): on the verb's own lines or in a shared section (compiler sets,
// observability) whose header names the verb.
func TestUsageListsEveryFlag(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf)
	docs := usageByVerb(buf.String())
	flagName := regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)`)
	documented := regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z0-9-]*)`)
	verbs := []string{"explore", "difftest", "campaign", "table2", "table3", "fig5", "fig6", "fig7",
		"verify-ir", "fuzz", "serve", "submit"}
	for _, verb := range verbs {
		var stdout, stderr bytes.Buffer
		if code := run([]string{verb, "-h"}, &stdout, &stderr); code != 2 {
			t.Errorf("cogdiff %s -h: exit %d, want 2", verb, code)
		}
		flags := flagName.FindAllStringSubmatch(stderr.String(), -1)
		if len(flags) == 0 {
			t.Errorf("cogdiff %s -h printed no flags:\n%s", verb, stderr.String())
		}
		listed := map[string]bool{}
		for _, m := range documented.FindAllStringSubmatch(docs(verb), -1) {
			listed[m[1]] = true
		}
		for _, f := range flags {
			if !listed[f[1]] {
				t.Errorf("cogdiff %s accepts -%s, but usage does not list it for %s", verb, f[1], verb)
			}
		}
	}
}

// usageByVerb splits usage text into the lines documenting each verb: a
// verb's own entry ("  cogdiff a|b ..." and its indented continuation
// lines) plus every section whose header "name (v1, v2*, ...):" names it,
// where "table*" names every verb starting with "table".
func usageByVerb(text string) func(verb string) string {
	type block struct {
		verbs []string
		text  string
	}
	var blocks []block
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "  cogdiff "):
			head := strings.Fields(line)[1]
			blocks = append(blocks, block{verbs: strings.Split(head, "|"), text: line})
		case strings.HasSuffix(line, "):") && strings.Contains(line, " ("):
			list := line[strings.Index(line, " (")+2 : len(line)-2]
			var verbs []string
			for _, entry := range strings.Split(list, ", ") {
				verbs = append(verbs, strings.Split(entry, "/")...)
			}
			blocks = append(blocks, block{verbs: verbs})
		case strings.HasPrefix(line, "    ") && len(blocks) > 0:
			blocks[len(blocks)-1].text += "\n" + line
		case strings.HasPrefix(line, "  -") && len(blocks) > 0:
			blocks[len(blocks)-1].text += "\n" + line
		case line == "" && len(blocks) > 0:
			blocks = append(blocks, block{})
		}
	}
	names := func(pattern, verb string) bool {
		if prefix, ok := strings.CutSuffix(pattern, "*"); ok {
			return strings.HasPrefix(verb, prefix)
		}
		return pattern == verb
	}
	return func(verb string) string {
		var out []string
		for _, b := range blocks {
			for _, v := range b.verbs {
				if names(v, verb) {
					out = append(out, b.text)
					break
				}
			}
		}
		return strings.Join(out, "\n")
	}
}
