// Package server turns the batch differential-testing engines into a
// long-running campaign service: the `cogdiff serve` verb.
//
// The server owns four pieces:
//
//   - A job queue and scheduler (jobs.go). Campaign, difftest and fuzz
//     jobs arrive as JSON over POST /v1/jobs, wait in a FIFO queue, and
//     run on a bounded pool of job slots (Config.MaxJobs). Campaign
//     execution shards across the existing core worker pool by canonical
//     unit index and reassembles through the serial cause-attribution
//     merge, so a served report is byte-identical to the serial CLI run
//     with the same options. Jobs are cancellable (DELETE /v1/jobs/{id})
//     at any point: cancellation propagates as context cancellation into
//     the engines, which abort at the next unit boundary without
//     corrupting the corpus.
//
//   - Streaming progress over SSE (events.go). GET /v1/jobs/{id}/events
//     replays the job's event log and then follows it live:
//     unit-completed, difference-found, progress (fuzz batches) and
//     done. Events carry no wall-clock data, so the stream
//     for a fixed configuration at workers=1 is deterministic.
//
//   - A shared corpus store (corpus.go). GET/PUT /v1/corpus speak the
//     fuzzer's go-fuzz-format JSON corpus; entries dedup by content
//     hash, persist one-file-per-entry with temp+rename, and feed fuzz jobs submitted with sharedCorpus, which
//     drain their coverage-increasing findings back into the store.
//
//   - Live observability (http.go). GET /metrics serves the telemetry
//     Registry in the Prometheus text exposition format mid-run;
//     /healthz completes the operational surface.
package server

import (
	"context"
	"fmt"
	"sync"

	"cogdiff/internal/telemetry"
)

// Config parameterizes a server.
type Config struct {
	// Workers is the per-job default worker count when a job spec does
	// not name one (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// CorpusDir, when non-empty, persists the shared corpus store there
	// (one file per entry). An empty dir keeps the store in memory only.
	CorpusDir string
	// MaxJobs bounds concurrently running jobs (0 = 2). Queued jobs
	// beyond MaxQueue (0 = 256) are rejected with 503.
	MaxJobs  int
	MaxQueue int
	// Metrics, when non-nil, is the registry /metrics serves. A nil
	// registry is replaced by a fresh one, so /metrics always works.
	Metrics *telemetry.Registry
}

// Server is a running differential-testing service. Create with New,
// expose with Handler, stop with Close.
type Server struct {
	cfg    Config
	reg    *telemetry.Registry
	corpus *CorpusStore

	baseCtx context.Context
	cancel  context.CancelFunc
	queue   chan *job
	wg      sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, for GET /v1/jobs
	nextID int
	// unitGate, when non-nil, runs inside every campaign unit-completed
	// callback (serialized, job mid-run). Test-only (export_test.go): the
	// cancellation test parks a job at its first unit boundary so a cancel
	// deterministically lands mid-run, however fast the campaign is.
	unitGate func()

	mRunning *telemetry.Gauge
	mQueued  *telemetry.Gauge
}

// New opens the corpus store and starts the job-slot workers.
func New(cfg Config) (*Server, error) {
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	corpus, err := OpenCorpus(cfg.CorpusDir, reg)
	if err != nil {
		return nil, err
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 2
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 256
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		corpus:   corpus,
		baseCtx:  ctx,
		cancel:   cancel,
		queue:    make(chan *job, cfg.MaxQueue),
		jobs:     make(map[string]*job),
		mRunning: reg.Gauge(telemetry.MetricServerJobsRunning),
		mQueued:  reg.Gauge(telemetry.MetricServerJobsQueued),
	}
	for i := 0; i < cfg.MaxJobs; i++ {
		s.wg.Add(1)
		go s.jobWorker()
	}
	return s, nil
}

// Registry returns the server's telemetry registry (what /metrics
// serves).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Corpus returns the shared corpus store.
func (s *Server) Corpus() *CorpusStore { return s.corpus }

// Close cancels every queued and running job and waits for the job
// slots to drain. Safe to call more than once.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}

// jobWorker is one job slot: it drains the FIFO queue until the server
// closes. Jobs cancelled while queued are skipped (their state already
// says canceled).
func (s *Server) jobWorker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j := <-s.queue:
			s.mQueued.Add(-1)
			s.runJob(j)
		}
	}
}

// enqueue registers a new job and queues it, or reports a full queue.
func (s *Server) enqueue(j *job) error {
	s.mu.Lock()
	s.nextID++
	j.status.ID = fmt.Sprintf("j-%06d", s.nextID)
	s.jobs[j.status.ID] = j
	s.order = append(s.order, j.status.ID)
	s.mu.Unlock()

	s.reg.LabeledCounter(telemetry.MetricServerJobsSubmitted, "type", string(j.status.Type)).Inc()
	select {
	case s.queue <- j:
		s.mQueued.Add(1)
		return nil
	default:
		s.finish(j, StateFailed, "job queue full")
		return fmt.Errorf("job queue full (%d waiting)", cap(s.queue))
	}
}

// testUnitGate reads the test-only unit gate under the server mutex (the
// setter in export_test.go writes under the same mutex, so gated jobs are
// race-free under -race).
func (s *Server) testUnitGate() func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.unitGate
}

// lookup returns a job by ID.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// statuses snapshots every job in submission order.
func (s *Server) statuses() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.lookup(id); ok {
			out = append(out, j.snapshot())
		}
	}
	return out
}
