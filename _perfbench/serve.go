package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cogdiff"
	"cogdiff/internal/bytecode"
	"cogdiff/internal/primitives"
	"cogdiff/internal/server"
	"cogdiff/internal/server/client"
	"cogdiff/internal/telemetry"
)

const (
	// serveMeasuredPasses is how many passes over the draw a serve
	// operation times, after its warm-up pass.
	serveMeasuredPasses = 1
	// serveExtraSetups is how many bare server starts follow each serve
	// operation.
	serveExtraSetups = 3
)

// serveJob is one difftest job: an instruction and an applicable compiler.
type serveJob struct {
	instr    string
	compiler string
	expected string
}

// serveCatalog is the whole catalog crossed with every applicable
// compiler: each byte-code with the three hand-written byte-code
// compilers and the derived metajit, each native method with native.
func serveCatalog() []serveJob {
	var out []serveJob
	for _, op := range bytecode.AllOpcodes() {
		d := bytecode.Describe(op)
		if d.Family == bytecode.FamCallPrimitive {
			continue
		}
		for _, c := range []string{cogdiff.CompilerSimple, cogdiff.CompilerStackToRegister,
			cogdiff.CompilerRegisterAllocating, cogdiff.CompilerMetaJIT} {
			out = append(out, serveJob{instr: d.Mnemonic, compiler: c})
		}
	}
	for _, p := range primitives.NewTable().All() {
		out = append(out, serveJob{instr: p.Name, compiler: cogdiff.CompilerNativeMethods})
	}
	return out
}

// serveDraw shuffles the catalog with the seed: every job appears once
// per pass, so the job mix is the same for every seed while the order,
// and with it which jobs overlap and what the warm caches hold when each
// job arrives, follows the seed. Clients cycle through the draw, so every
// instruction repeats across passes.
func serveDraw(seed int64) []*serveJob {
	catalog := serveCatalog()
	draw := make([]*serveJob, len(catalog))
	for i, k := range rand.New(rand.NewSource(seed)).Perm(len(catalog)) {
		draw[i] = &catalog[k]
	}
	return draw
}

func (j *serveJob) key() string { return j.instr + "|" + j.compiler }

// serveOracle computes every job's expected report in-process with
// cogdiff.TestInstruction, during set-up, outside every timing.
func serveOracle(draw []*serveJob) (map[string]string, error) {
	want := make(map[string]string, len(draw))
	for _, j := range draw {
		res, err := cogdiff.TestInstruction(j.instr, j.compiler)
		if err != nil {
			return nil, fmt.Errorf("oracle for %s on %s: %w", j.instr, j.compiler, err)
		}
		want[j.key()] = res.Render()
	}
	return want, nil
}

// setExpected attaches the oracle's reports to the draw.
func setExpected(draw []*serveJob, want map[string]string) error {
	for _, j := range draw {
		var ok bool
		if j.expected, ok = want[j.key()]; !ok {
			return fmt.Errorf("no expected report for %s on %s", j.instr, j.compiler)
		}
	}
	return nil
}

// liveServer is one in-process `cogdiff serve` on loopback.
type liveServer struct {
	srv  *server.Server
	http *http.Server
	done chan struct{}
	url  string
}

// startServer starts a server and returns once /healthz answers.
func startServer(maxJobs int) (*liveServer, error) {
	t0 := time.Now()
	srv, err := server.New(server.Config{Workers: 1, MaxJobs: maxJobs})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{srv: srv, http: &http.Server{Handler: srv.Handler()}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(ls.done)
		ls.http.Serve(ln)
	}()
	c := client.New(ls.url)
	for {
		if err := c.Health(context.Background()); err == nil {
			break
		}
		if time.Since(t0) > 10*time.Second {
			ls.stop()
			return nil, fmt.Errorf("server not healthy after 10s")
		}
	}
	return ls, nil
}

// stop closes the listener and every connection, waits for the serving
// goroutine, then cancels and drains the job slots.
func (ls *liveServer) stop() {
	ls.http.Close()
	<-ls.done
	ls.srv.Close()
}

// jobTiming is one completed job as its client saw it.
type jobTiming struct {
	latency time.Duration // submit until the done event
	wait    time.Duration // submit response until the done event
	slot    time.Duration // server-side start to finish (ms resolution)
	// missingDone is set when the event stream ended without a done
	// event.
	missingDone bool
}

// loopResult is one closed-loop measurement.
type loopResult struct {
	timings    []jobTiming
	maxBacklog int64
	elapsed    time.Duration
}

// loop is the closed-loop load generator: nclients clients each submit
// the next job of the draw and follow its event stream to done before
// submitting again, until the first jobs jobs of the endless draw have
// been handed out. Failed and wrong jobs are counted in r.
func loop(r *run, ls *liveServer, draw []*serveJob, nclients int, jobs int) loopResult {
	var next, maxBacklog atomic.Int64
	queued := ls.srv.Registry().Gauge(telemetry.MetricServerJobsQueued)
	var mu sync.Mutex
	var res loopResult
	var wg sync.WaitGroup
	start := time.Now()
	more := func() (int, bool) {
		i := int(next.Add(1) - 1)
		return i, i < jobs
	}
	for c := 0; c < nclients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := client.New(ls.url)
			for i, ok := more(); ok; i, ok = more() {
				t, err := oneJob(c, draw[i%len(draw)], queued, &maxBacklog)
				mu.Lock()
				r.attempt(err)
				if err == nil {
					res.timings = append(res.timings, t)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.maxBacklog, res.elapsed = maxBacklog.Load(), time.Since(start)
	return res
}

func oneJob(c *client.Client, j *serveJob, queued *telemetry.Gauge, maxBacklog *atomic.Int64) (jobTiming, error) {
	ctx := context.Background()
	t0 := time.Now()
	st, err := c.Submit(ctx, server.JobSpec{Type: server.JobDifftest, Difftest: &server.DifftestSpec{Instruction: j.instr, Compiler: j.compiler}})
	if err != nil {
		return jobTiming{}, fmt.Errorf("submit %s on %s: %w", j.instr, j.compiler, err)
	}
	t1 := time.Now()
	if b := queued.Value(); b > maxBacklog.Load() {
		maxBacklog.Store(b)
	}
	var final string
	err = c.Events(ctx, st.ID, func(ev server.Event) error {
		if ev.Type == server.EventDone {
			final = ev.State
		}
		return nil
	})
	t2 := time.Now()
	if err != nil {
		return jobTiming{}, fmt.Errorf("events of job %s: %w", st.ID, err)
	}
	if final != "" && final != string(server.StateDone) {
		return jobTiming{}, fmt.Errorf("job %s (%s on %s) ended %q", st.ID, j.instr, j.compiler, final)
	}
	got, err := c.Job(ctx, st.ID)
	if err != nil {
		return jobTiming{}, fmt.Errorf("fetch job %s: %w", st.ID, err)
	}
	if got.State != server.StateDone {
		return jobTiming{}, fmt.Errorf("job %s (%s on %s) ended %q", st.ID, j.instr, j.compiler, got.State)
	}
	if got.Report != j.expected {
		return jobTiming{}, fmt.Errorf("job %s (%s on %s): served report differs from TestInstruction(...).Render()", st.ID, j.instr, j.compiler)
	}
	return jobTiming{
		latency: t2.Sub(t0),
		wait:    t2.Sub(t1),
		slot:    time.Duration(got.Finished-got.Started) * time.Millisecond,
		// The server marks a job terminal before it publishes the done
		// event, so a follower can see the stream end in between. The job
		// is still done (checked above); the lost event is counted.
		missingDone: final == "",
	}, nil
}

// serveWorkload measures served jobs. Each operation is a fresh process
// running one in-process server, as `cogdiff serve` does, under a closed
// loop of nproc clients: one warm-up pass over the draw, then
// serveMeasuredPasses measured passes with the server's caches warm. The
// parent computes the expected reports once and hands them to each
// child.
func serveWorkload(r *run, seed int64, traced bool) error {
	draw := serveDraw(seed)
	want, err := serveOracle(draw)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if traced {
		return serveTraced(r, seed, payload)
	}
	var setup, cpu, rss, lat []float64
	var jobs, missing int
	var wall float64
	var backlog int64
	deadline := time.Now().Add(r.seconds)
	for len(cpu) < 3 || time.Now().Before(deadline) {
		out, mb, err := spawnWith(payload, "serve", strconv.FormatInt(seed, 10))
		if err != nil {
			r.attempt(err)
			if r.res.Failed > 3 {
				break
			}
			continue
		}
		r.res.Attempted += out.Attempted
		r.res.Failed += out.Failed
		setup = append(setup, calibrated(out.SetupS, out.CalS))
		// A serve operation takes seconds; set-up alone is cheap, so a
		// few more bare server starts give set-up a median over as many
		// samples as the other workloads have.
		for i := 0; i < serveExtraSetups; i++ {
			if s, _, err := spawn("serve-setup"); err == nil {
				setup = append(setup, calibrated(s.SetupS, s.CalS))
			} else {
				r.attempt(err)
			}
		}
		cpu = append(cpu, calibrated(out.CPUS, out.CalS))
		rss = append(rss, mb)
		lat = append(lat, out.Latencies...)
		jobs += out.Units
		wall += out.OpS
		missing += out.MissingDone
		backlog = max(backlog, out.MaxBacklog)
	}
	if len(cpu) == 0 {
		return fmt.Errorf("no serve run completed")
	}
	r.set("setup_s", "s", median(setup))
	// Consecutive runs pair up; each pair counts with its cheaper one.
	r.set("cal_cpu_ms", "ms", 1000*medianOfMins(cpu, 2))
	r.set("rss_mb", "MiB", median(rss))
	fmt.Fprintf(os.Stderr, "perfbench: serve: %d runs, %d measured jobs, %.0f jobs/s, latency p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, max backlog %d, %d event streams ended without a done event\n",
		len(cpu), jobs, float64(jobs)/wall, 1000*median(lat), 1000*quantile(lat, 0.9), 1000*quantile(lat, 0.99), backlog, missing)
	return nil
}

// childServe is one serve operation in a fresh process, on the server ls
// that the child has just started: it reads the expected reports from
// standard input, runs the warm-up pass, then times the measured passes.
// A traced child profiles the measured passes and reports the server
// registry's counts over them.
func childServe(ls *liveServer, seed int64, traced bool) (*childOut, error) {
	var want map[string]string
	if err := json.NewDecoder(os.Stdin).Decode(&want); err != nil {
		return nil, fmt.Errorf("read expected reports: %w", err)
	}
	draw := serveDraw(seed)
	if err := setExpected(draw, want); err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	r := &run{res: result{Metrics: map[string]metric{}}}
	loop(r, ls, draw, nproc, len(draw))
	var res loopResult
	var cpu float64
	measured := func() error {
		cpu0 := cpuSeconds()
		res = loop(r, ls, draw, nproc, serveMeasuredPasses*len(draw))
		cpu = cpuSeconds() - cpu0
		return nil
	}
	countsBefore := registryCounts(ls.srv.Registry())
	before := sampleRuntime()
	var layers map[layer]float64
	var err error
	if traced {
		layers, err = profiled(func() (time.Duration, error) { err := measured(); return res.elapsed, err })
	} else {
		err = measured()
	}
	if err != nil {
		return nil, err
	}
	mallocs, gcShare := runtimeDelta(before, sampleRuntime())
	out := &childOut{
		Attempted:   r.res.Attempted,
		Failed:      r.res.Failed,
		Units:       len(res.timings),
		OpS:         res.elapsed.Seconds(),
		Mallocs:     mallocs,
		GCShare:     gcShare,
		MaxBacklog:  res.maxBacklog,
		MissingDone: int(missingDone(res.timings)),
		Layers:      layers,
	}
	if traced {
		out.Counts = registryCounts(ls.srv.Registry())
		for k, v := range countsBefore {
			out.Counts[k] -= v
		}
	}
	if len(res.timings) > 0 {
		out.CPUS = cpu / float64(len(res.timings))
	}
	for _, t := range res.timings {
		out.Latencies = append(out.Latencies, t.latency.Seconds())
		out.QueueS += (t.wait - t.slot).Seconds()
	}
	return out, nil
}

// serveTraced alternates untraced and traced serve children and reports
// the per-job layer split of the traced ones. The split is profiled CPU
// time; server.queue_s is beside it: the wall time a job waited outside a
// job slot (SSE delivery included), client-observed wait minus the
// server's slot time, whose timestamps have millisecond resolution.
func serveTraced(r *run, seed int64, payload []byte) error {
	arg := strconv.FormatInt(seed, 10)
	var untraced, traced, mallocs, gc []float64
	var sum traceSum
	var queue float64
	var backlog, missing int64
	deadline := time.Now().Add(r.seconds)
	for len(traced) < 2 || time.Now().Before(deadline) {
		for _, mode := range []string{"serve", "serve-traced"} {
			out, _, err := spawnWith(payload, mode, arg)
			if err != nil || out.Units == 0 {
				if err == nil {
					err = fmt.Errorf("%s child completed no job", mode)
				}
				r.attempt(err)
				continue
			}
			r.res.Attempted += out.Attempted
			r.res.Failed += out.Failed
			jobs := float64(out.Units)
			backlog = max(backlog, out.MaxBacklog)
			missing += int64(out.MissingDone)
			if mode == "serve" {
				untraced = append(untraced, out.OpS/jobs)
				mallocs = append(mallocs, out.Mallocs/jobs)
				gc = append(gc, out.GCShare)
				continue
			}
			traced = append(traced, out.OpS/jobs)
			queue += out.QueueS
			sum.add(out, jobs)
		}
		if r.res.Failed > 3 {
			break
		}
	}
	if len(traced) == 0 || len(untraced) == 0 {
		return nil
	}
	setLayerMetrics(r, &sum, lCore, median(untraced), median(traced), median(mallocs), median(gc))
	r.set("server.queue_s", "s", queue/sum.ops)
	r.set("server.max_backlog", "count", float64(backlog))
	r.set("server.missing_done_events", "count", float64(missing))
	return nil
}

func missingDone(ts []jobTiming) int64 {
	var n int64
	for _, t := range ts {
		if t.missingDone {
			n++
		}
	}
	return n
}
