package jit_test

import (
	"testing"

	"cogdiff"
	"cogdiff/internal/jit"
	"cogdiff/internal/telemetry"
)

// maxCampaignAnalyses is the number of full verifier analyses a fresh
// serial campaign runs: one per novel (input, output) stage pair of its
// 4552 verified stages. A verified-clean cache that stops answering
// repeated stages reads 1704.
const maxCampaignAnalyses = 574

// TestCampaignVerifierAnalyses is a deterministic work gate on the
// verified-clean cache: the whole-catalog campaign, run serially with
// the cache emptied first, runs at most maxCampaignAnalyses full
// verifier analyses and finds no violation on the shipped catalog.
func TestCampaignVerifierAnalyses(t *testing.T) {
	if testing.Short() {
		t.Skip("a deterministic work count: the full suite checks it, the -short (race) tier need not")
	}
	jit.ResetVerifiedCleanForTest()
	reg := telemetry.NewRegistry()
	if _, err := cogdiff.RunCampaign(cogdiff.CampaignOptions{Workers: 1, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	analyses := reg.Counter(telemetry.MetricIRVerifyAnalyses).Value()
	t.Logf("%d full verifier analyses", analyses)
	if analyses == 0 {
		t.Fatal("the campaign counted no verifier analyses; the gate would check nothing")
	}
	if analyses > maxCampaignAnalyses {
		t.Fatalf("%d full verifier analyses in a fresh serial campaign, want at most %d", analyses, maxCampaignAnalyses)
	}
	if v := reg.Counter(telemetry.MetricIRVerifyViolations).Value(); v != 0 {
		t.Fatalf("%d verifier violations on the shipped catalog, want 0", v)
	}
}
