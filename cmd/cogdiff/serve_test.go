package main

// Flag-validation goldens for the service verbs, in the same style as
// TestGoldenFlagValidationErrors: every misconfiguration must fail
// before a listener binds or a request leaves the process, with a
// stable message.

import (
	"bytes"
	"testing"
)

func TestGoldenServeFlagErrors(t *testing.T) {
	checkGolden(t, "err_serve_max_jobs.golden",
		runCLIError(t, "serve", "-max-jobs", "-1"))
	checkGolden(t, "err_serve_workers.golden",
		runCLIError(t, "serve", "-workers", "-2"))
	// Port 99999 is out of range on every platform, so the listen error
	// is stable.
	checkGolden(t, "err_serve_addr.golden",
		runCLIError(t, "serve", "-addr", "127.0.0.1:99999"))
}

func TestGoldenSubmitFlagErrors(t *testing.T) {
	checkGolden(t, "err_submit_poll.golden",
		runCLIError(t, "submit", "-poll", "0s", "campaign"))
	checkGolden(t, "err_submit_connect_timeout.golden",
		runCLIError(t, "submit", "-connect-timeout", "-1s", "campaign"))
	checkGolden(t, "err_submit_subcommand.golden",
		runCLIError(t, "submit", "bogus"))
	checkGolden(t, "err_submit_fuzz_budget.golden",
		runCLIError(t, "submit", "fuzz", "-budget", "0"))
	checkGolden(t, "err_submit_campaign_workers.golden",
		runCLIError(t, "submit", "campaign", "-workers", "-1"))
	checkGolden(t, "err_submit_difftest_args.golden",
		runCLIError(t, "submit", "difftest", "primAdd"))
}

func TestServeSubmitUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"serve", "extra-arg"}, &stdout, &stderr); code != 2 {
		t.Errorf("serve with positional args: exit %d, want 2", code)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"submit"}, &stdout, &stderr); code != 2 {
		t.Errorf("submit without a subcommand: exit %d, want 2", code)
	}
}
