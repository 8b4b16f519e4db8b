package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cogdiff"
	"cogdiff/internal/telemetry"
)

// campaignGolden is the oracle: Table 2 followed by Table 3, exactly as
// the CLI goldens pin them (294 differences on the production catalog).
func campaignGolden() (string, error) {
	var out string
	for _, name := range []string{"table2.golden", "table3.golden"} {
		b, err := os.ReadFile(filepath.Join("cmd", "cogdiff", "testdata", name))
		if err != nil {
			return "", fmt.Errorf("read campaign oracle: %w", err)
		}
		out += string(b)
	}
	return out, nil
}

// childCampaign runs one whole-catalog campaign as `cogdiff campaign
// -workers 1` does: production defects, the default four compilers, both
// ISAs. A traced campaign runs the same call under the CPU profiler, with
// a telemetry registry attached, and reports the layer split and the
// program's own counters.
func childCampaign(traced bool) (*childOut, error) {
	opts := cogdiff.CampaignOptions{Workers: 1}
	var reg *telemetry.Registry
	if traced {
		reg = telemetry.NewRegistry()
		opts.Metrics = reg
	}
	var sum *cogdiff.CampaignSummary
	var op time.Duration
	var cpu float64
	run := func() (err error) {
		cpu0, start := cpuSeconds(), time.Now()
		sum, err = cogdiff.RunCampaign(opts)
		op, cpu = time.Since(start), cpuSeconds()-cpu0
		return err
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
	out := &childOut{CPUS: cpu, OpS: op.Seconds(), Mallocs: mallocs, GCShare: gcShare, Output: sum.Table2 + sum.Table3, Layers: layers}
	for _, row := range sum.Rows {
		out.Units += row.Instructions
		out.Paths += row.Curated
	}
	if traced {
		out.Counts = registryCounts(reg)
		out.Counts["core.curated_paths"] = int64(out.Paths)
	}
	return out, nil
}

// campaignWorkload measures whole-catalog campaigns, each in a fresh
// process, until the run's seconds are spent. It is seedless: the paper
// fixes the catalog.
func campaignWorkload(r *run, traced bool) error {
	golden, err := campaignGolden()
	if err != nil {
		return err
	}
	check := func(out *childOut) error {
		if out.Output != golden {
			return fmt.Errorf("campaign tables differ from cmd/cogdiff/testdata/table{2,3}.golden")
		}
		return nil
	}
	if traced {
		return campaignTraced(r, check)
	}
	var setup, cpu, cal, wall, rss, units []float64
	deadline := time.Now().Add(r.seconds)
	for len(cpu) < 3 || time.Now().Before(deadline) {
		out, mb, err := spawn("campaign")
		if err == nil {
			err = check(out)
		}
		r.attempt(err)
		if err != nil {
			if r.res.Failed > 3 {
				break
			}
			continue
		}
		setup = append(setup, calibrated(out.SetupS, out.CalS))
		cpu = append(cpu, out.CPUS)
		cal = append(cal, calibrated(out.CPUS, out.CalS))
		wall = append(wall, out.OpS)
		rss = append(rss, mb)
		units = append(units, float64(out.Units))
	}
	if len(cpu) == 0 {
		return fmt.Errorf("no campaign completed")
	}
	r.set("setup_s", "s", median(setup))
	// Consecutive campaigns pair up; each pair counts with its cheaper one.
	r.set("cal_cpu_ms", "ms", 1000*medianOfMins(cal, 2))
	r.set("rss_mb", "MiB", median(rss))
	fmt.Fprintf(os.Stderr, "perfbench: campaign: %d runs, uncalibrated CPU p50 %.1f ms, wall p50 %.1f ms, p90 %.1f ms, %.0f units/s\n",
		len(wall), 1000*median(cpu), 1000*median(wall), 1000*quantile(wall, 0.9), median(units)/median(wall))
	return nil
}

// campaignTraced alternates untraced and traced fresh-process campaigns,
// checks both against the oracle and the traced counts against the first
// traced run's, and reports the per-layer split per campaign.
func campaignTraced(r *run, check func(*childOut) error) error {
	var untraced, traced, mallocs, gc []float64
	var first map[string]int64
	var sum traceSum
	deadline := time.Now().Add(r.seconds)
	for len(traced) < 2 || time.Now().Before(deadline) {
		u, _, err := spawn("campaign")
		if err == nil {
			err = check(u)
		}
		r.attempt(err)
		if err == nil {
			untraced = append(untraced, u.OpS)
			mallocs = append(mallocs, u.Mallocs/float64(u.Paths))
			gc = append(gc, u.GCShare)
		}
		t, _, err := spawn("campaign-traced")
		if err == nil {
			err = check(t)
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
	setLayerMetrics(r, &sum, lCore, median(untraced), median(traced), median(mallocs), median(gc))
	return nil
}
