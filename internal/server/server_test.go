package server_test

// End-to-end tests of the campaign service over real HTTP (httptest):
// the byte-identity contract between served and serial CLI reports, SSE
// stream determinism, shared-corpus coherence under concurrent clients,
// cancellation hygiene, and /metrics validity mid-run.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cogdiff"
	"cogdiff/internal/fuzzer"
	"cogdiff/internal/server"
	"cogdiff/internal/server/client"
	"cogdiff/internal/telemetry"
)

// startServer brings up a server on an httptest listener and returns a
// typed client for it. Cleanup order matters: the HTTP listener closes
// first, then the job engine.
func startServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, client.New(ts.URL)
}

func submitAndWait(t *testing.T, cl *client.Client, spec server.JobSpec) server.JobStatus {
	t.Helper()
	ctx := context.Background()
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := cl.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait %s: %v", st.ID, err)
	}
	return final
}

// TestServedDifftestMatchesLocal pins the cheap end of the byte-identity
// contract: a served difftest report equals the local API rendering.
func TestServedDifftestMatchesLocal(t *testing.T) {
	_, cl := startServer(t, server.Config{})
	res, err := cogdiff.TestInstructionWith("primAdd", "simple", cogdiff.TestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	final := submitAndWait(t, cl, server.JobSpec{Type: server.JobDifftest,
		Difftest: &server.DifftestSpec{Instruction: "primAdd", Compiler: "simple"}})
	if final.State != server.StateDone {
		t.Fatalf("job state %s: %s", final.State, final.Error)
	}
	if final.Report != res.Render() {
		t.Errorf("served difftest diverged from local:\n--- local ---\n%s--- served ---\n%s",
			res.Render(), final.Report)
	}
}

// TestServedCampaignByteIdentical is the tentpole acceptance test: a
// campaign served at any worker count reports byte-identically to the
// serial in-process run.
func TestServedCampaignByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full served-campaign matrix skipped in -short mode")
	}
	serial, err := cogdiff.RunCampaign(cogdiff.CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseline := serial.StableReport()

	_, cl := startServer(t, server.Config{MaxJobs: 1})

	cases := []struct {
		name string
		spec server.CampaignSpec
	}{
		{"workers1", server.CampaignSpec{Workers: 1}},
		{"workers4", server.CampaignSpec{Workers: 4}},
		{fmt.Sprintf("workers%d", runtime.GOMAXPROCS(0)), server.CampaignSpec{}},
	}
	for _, tc := range cases {
		spec := tc.spec
		final := submitAndWait(t, cl, server.JobSpec{Type: server.JobCampaign, Campaign: &spec})
		if final.State != server.StateDone {
			t.Fatalf("%s: job state %s: %s", tc.name, final.State, final.Error)
		}
		if final.Report != baseline {
			t.Errorf("%s: served campaign report diverged from the serial run", tc.name)
		}
	}
}

// TestCancelledCampaignRerunMatchesSerial cancels a campaign mid-run and
// checks (1) the job lands in canceled, and (2) a rerun on the same
// server still reproduces the serial baseline — the cancelled run left
// no shared state behind that could leak into the next one.
//
// The cancel lands deterministically: the server's test-only unit gate
// parks the job inside its first unit-completed callback (the campaign
// cannot finish while the gate holds, because unit callbacks are
// serialized and each worker blocks in its unit until its callback
// returns), the cancel is issued against the parked job, and only then
// does the gate release. No retries, no completion race.
func TestCancelledCampaignRerunMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns skipped in -short mode")
	}
	serial, err := cogdiff.RunCampaign(cogdiff.CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	srv, cl := startServer(t, server.Config{MaxJobs: 1})
	gateEntered := make(chan struct{})
	gateRelease := make(chan struct{})
	var once sync.Once
	srv.SetUnitGateForTest(func() {
		once.Do(func() {
			close(gateEntered)
			<-gateRelease
		})
	})

	st, err := cl.Submit(ctx, server.JobSpec{Type: server.JobCampaign,
		Campaign: &server.CampaignSpec{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gateEntered:
	case <-time.After(60 * time.Second):
		t.Fatal("campaign never reached its first unit boundary")
	}
	// The job is parked mid-run. Cancel it — the job context is cancelled
	// before Cancel returns — then let the campaign continue into the
	// cancelled context, which aborts it at the next unit boundary.
	if _, err := cl.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	close(gateRelease)
	final, err := cl.Wait(ctx, st.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateCanceled {
		t.Fatalf("cancelled job state %s, want canceled", final.State)
	}

	rerun := submitAndWait(t, cl, server.JobSpec{Type: server.JobCampaign,
		Campaign: &server.CampaignSpec{Workers: 4}})
	if rerun.State != server.StateDone {
		t.Fatalf("rerun state %s: %s", rerun.State, rerun.Error)
	}
	if rerun.Report != serial.StableReport() {
		t.Error("rerun after the cancelled run diverged from the serial baseline")
	}
}

// TestCancelQueuedJob cancels a job that never left the queue.
func TestCancelQueuedJob(t *testing.T) {
	_, cl := startServer(t, server.Config{MaxJobs: 1, Workers: 1})
	ctx := context.Background()
	// Occupy the single job slot with a slow fuzz job.
	running, err := cl.Submit(ctx, server.JobSpec{Type: server.JobFuzz,
		Fuzz: &server.FuzzSpec{Seed: 1, Budget: 2000000, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := cl.Submit(ctx, server.JobSpec{Type: server.JobFuzz,
		Fuzz: &server.FuzzSpec{Seed: 2, Budget: 100, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Wait(ctx, queued.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateCanceled {
		t.Errorf("queued job state %s, want canceled", st.State)
	}
	if st.Started != 0 {
		t.Error("cancelled queued job reports a start time; it must never have run")
	}
	if _, err := cl.Cancel(ctx, running.ID); err != nil {
		t.Fatal(err)
	}
	if st, err := cl.Wait(ctx, running.ID, 10*time.Millisecond); err != nil || st.State != server.StateCanceled {
		t.Errorf("running job after cancel: state %v err %v, want canceled", st.State, err)
	}
}

// rawEventStream fetches a terminal job's full SSE stream as bytes.
func rawEventStream(t *testing.T, base *client.Client, url, id string) string {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestSSEStreamDeterministic runs the same fuzz job twice at workers=1
// and byte-compares the two complete SSE streams: progress events carry
// no wall-clock data, so identical specs must produce identical bytes.
func TestSSEStreamDeterministic(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	cl := client.New(ts.URL)

	spec := server.JobSpec{Type: server.JobFuzz,
		Fuzz: &server.FuzzSpec{Seed: 2022, Budget: 300, Workers: 1, Minimize: true}}
	a := submitAndWait(t, cl, spec)
	b := submitAndWait(t, cl, spec)
	if a.State != server.StateDone || b.State != server.StateDone {
		t.Fatalf("job states %s/%s: %s%s", a.State, b.State, a.Error, b.Error)
	}
	streamA := rawEventStream(t, cl, ts.URL, a.ID)
	streamB := rawEventStream(t, cl, ts.URL, b.ID)
	if streamA != streamB {
		t.Errorf("SSE streams of identical jobs differ\n--- first ---\n%s--- second ---\n%s", streamA, streamB)
	}
	if !strings.Contains(streamA, "event: progress") || !strings.Contains(streamA, "event: done") {
		t.Errorf("stream missing expected event types:\n%s", streamA)
	}
	// Replay from an offset skips exactly the first events.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + a.ID + "/events?from=2")
	if err != nil {
		t.Fatal(err)
	}
	partial, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.HasSuffix(streamA, string(partial)) || len(partial) >= len(streamA) {
		t.Error("?from= replay is not a proper suffix of the full stream")
	}
}

// TestSharedCorpusConcurrentClients hammers PUT /v1/corpus from several
// clients with overlapping entry sets and checks the store ends up with
// exactly the union: nothing lost, nothing duplicated.
func TestSharedCorpusConcurrentClients(t *testing.T) {
	srv, cl := startServer(t, server.Config{CorpusDir: t.TempDir()})
	ctx := context.Background()

	// 40 distinct genomes; each client PUTs an overlapping window of 16.
	const total, clients, window = 40, 8, 16
	seqs := make([]*fuzzer.Seq, total)
	for i := range seqs {
		seqs[i] = fuzzer.SeedFromTuple(int64(i+1), int64(i), 1, 2)
	}
	uniq := make(map[string]bool)
	for _, s := range seqs {
		uniq[s.Key()] = true
	}

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			start := (c * 5) % total
			var batch []*fuzzer.Seq
			for k := 0; k < window; k++ {
				batch = append(batch, seqs[(start+k)%total])
			}
			doc, err := fuzzer.MarshalCorpus(batch)
			if err == nil {
				_, err = cl.PutCorpus(ctx, doc)
			}
			errs[c] = err
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	snap := srv.Corpus().Snapshot()
	if len(snap) != len(uniq) {
		t.Errorf("store has %d entries, want %d distinct", len(snap), len(uniq))
	}
	seen := make(map[string]bool)
	for _, s := range snap {
		if seen[s.Key()] {
			t.Errorf("duplicate entry %q in store", s.Key())
		}
		seen[s.Key()] = true
		if !uniq[s.Key()] {
			t.Errorf("foreign entry %q in store", s.Key())
		}
	}

	// Re-uploading everything is a pure no-op.
	doc, err := cl.GetCorpus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.PutCorpus(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 0 || res.Total != len(uniq) {
		t.Errorf("idempotent re-PUT added %d (total %d), want 0 (total %d)", res.Added, res.Total, len(uniq))
	}
}

// TestCorpusPersistsAcrossRestart closes a server and reopens its
// corpus directory: the store must reload every entry, and a corrupt
// file must be skipped without poisoning the rest.
func TestCorpusPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, err := server.New(server.Config{CorpusDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 5; i++ {
		s := fuzzer.SeedFromTuple(int64(100+i), 0, 0, 0)
		srv1.Corpus().Add(s)
		want = append(want, s.Key())
	}
	n := srv1.Corpus().Len()
	srv1.Close()

	srv2, err := server.New(server.Config{CorpusDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := srv2.Corpus().Len(); got != n {
		t.Errorf("reloaded %d entries, want %d", got, n)
	}
	reloaded := make(map[string]bool)
	for _, s := range srv2.Corpus().Snapshot() {
		reloaded[s.Key()] = true
	}
	for _, k := range want {
		if !reloaded[k] {
			t.Errorf("entry %q lost across restart", k)
		}
	}
}

// TestSharedCorpusFeedsFuzzJobs checks the loop: PUT seeds the store, a
// sharedCorpus fuzz job drains them as seeds and merges its findings
// back, growing the store.
func TestSharedCorpusFeedsFuzzJobs(t *testing.T) {
	srv, cl := startServer(t, server.Config{Workers: 1})
	ctx := context.Background()
	doc, err := fuzzer.MarshalCorpus([]*fuzzer.Seq{fuzzer.SeedFromTuple(7, 1, 2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PutCorpus(ctx, doc); err != nil {
		t.Fatal(err)
	}
	before := srv.Corpus().Len()
	final := submitAndWait(t, cl, server.JobSpec{Type: server.JobFuzz,
		Fuzz: &server.FuzzSpec{Seed: 2022, Budget: 300, Workers: 1, SharedCorpus: true}})
	if final.State != server.StateDone {
		t.Fatalf("fuzz job state %s: %s", final.State, final.Error)
	}
	if after := srv.Corpus().Len(); after <= before {
		t.Errorf("shared corpus did not grow: %d -> %d", before, after)
	}
}

// TestMetricsValidMidRun scrapes /metrics while a job is running and
// after it finishes; both snapshots must parse as Prometheus text.
func TestMetricsValidMidRun(t *testing.T) {
	_, cl := startServer(t, server.Config{Workers: 1, MaxJobs: 1})
	ctx := context.Background()
	st, err := cl.Submit(ctx, server.JobSpec{Type: server.JobFuzz,
		Fuzz: &server.FuzzSpec{Seed: 3, Budget: 100000, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ParsePrometheus(mid); err != nil {
		t.Errorf("mid-run /metrics does not parse: %v", err)
	}
	if !strings.Contains(mid, telemetry.MetricServerJobsSubmitted) {
		t.Error("mid-run /metrics missing the jobs-submitted counter")
	}
	if _, err := cl.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	after, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ParsePrometheus(after); err != nil {
		t.Errorf("post-run /metrics does not parse: %v", err)
	}
	if !strings.Contains(after, `state="canceled"`) {
		t.Error("post-cancel /metrics missing the canceled completion series")
	}
}

// TestSubmitValidation pins the HTTP error surface: malformed and
// invalid specs are 400s naming the problem, unknown jobs are 404s.
func TestSubmitValidation(t *testing.T) {
	_, cl := startServer(t, server.Config{})
	ctx := context.Background()
	badSpecs := []server.JobSpec{
		{},
		{Type: "bogus"},
		{Type: server.JobDifftest},
		{Type: server.JobFuzz, Fuzz: &server.FuzzSpec{Budget: -1}},
		{Type: server.JobCampaign, Campaign: &server.CampaignSpec{Workers: -2}},
	}
	for i, spec := range badSpecs {
		if _, err := cl.Submit(ctx, spec); err == nil {
			t.Errorf("bad spec %d accepted, want 400", i)
		} else if !strings.Contains(err.Error(), "400") {
			t.Errorf("bad spec %d: %v, want a 400", i, err)
		}
	}
	if _, err := cl.Job(ctx, "j-999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown job lookup: %v, want a 404", err)
	}
	if err := cl.Health(ctx); err != nil {
		t.Errorf("healthz: %v", err)
	}
}
