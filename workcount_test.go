package cogdiff

import (
	"testing"

	"cogdiff/internal/telemetry"
)

// TestCampaignOptimizesOncePerPathAndCompiler is a deterministic work
// gate: a fresh serial campaign runs the three-pass pipeline at most once
// per curated (path, compiler) pair — both ISAs and every blame prefix
// lower the retained stages instead of recompiling.
func TestCampaignOptimizesOncePerPathAndCompiler(t *testing.T) {
	if testing.Short() {
		t.Skip("a deterministic work count: the full suite checks it, the -short (race) tier need not")
	}
	reg := telemetry.NewRegistry()
	sum, err := RunCampaign(CampaignOptions{Workers: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	curated := 0
	for _, row := range sum.Rows {
		curated += row.Curated
	}
	const passes = 3
	if got := reg.Counter(telemetry.MetricPassesRun).Value(); got > int64(passes*curated) {
		t.Fatalf("%d passes run, want at most %d (%d passes x %d curated paths)", got, passes*curated, passes, curated)
	}
}
