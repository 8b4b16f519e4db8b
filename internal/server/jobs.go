package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cogdiff"
	"cogdiff/internal/fuzzer"
	"cogdiff/internal/telemetry"
)

// JobType names one of the three engines a job can drive.
type JobType string

// The accepted job types.
const (
	JobCampaign JobType = "campaign"
	JobDifftest JobType = "difftest"
	JobFuzz     JobType = "fuzz"
)

// State is a job lifecycle state.
type State string

// The job lifecycle: queued -> running -> done | failed | canceled.
// A queued job can move straight to canceled.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobSpec is the JSON body of POST /v1/jobs: the job type plus exactly
// the options the matching CLI verb takes, so a served run reproduces a
// local one.
type JobSpec struct {
	Type     JobType       `json:"type"`
	Campaign *CampaignSpec `json:"campaign,omitempty"`
	Difftest *DifftestSpec `json:"difftest,omitempty"`
	Fuzz     *FuzzSpec     `json:"fuzz,omitempty"`
}

// CampaignSpec configures a campaign job. The report is the stable
// surface (`cogdiff campaign -stable`): byte-identical to the serial
// CLI run with the same options, at any worker count.
type CampaignSpec struct {
	Pristine           bool `json:"pristine,omitempty"`
	ConstFoldSignError bool `json:"defectConstfold,omitempty"`
	// MetaJITGuardSignError enables the meta-compiler guard-sign defect
	// (only the metajit compiler is affected).
	MetaJITGuardSignError bool `json:"defectMetajitGuard,omitempty"`
	// Compilers selects the compiler set with the CLI -compilers spec
	// syntax: an exact list like "simple,metajit" or additions like
	// "+metajit" (empty = the paper's four).
	Compilers     string `json:"compilers,omitempty"`
	MaxIterations int    `json:"maxIterations,omitempty"`
	// Workers shards the campaign (0 = the server's default).
	Workers int `json:"workers,omitempty"`
}

// DifftestSpec configures a single-instruction differential test job.
type DifftestSpec struct {
	Instruction           string `json:"instruction"`
	Compiler              string `json:"compiler"`
	Pristine              bool   `json:"pristine,omitempty"`
	ConstFoldSignError    bool   `json:"defectConstfold,omitempty"`
	MetaJITGuardSignError bool   `json:"defectMetajitGuard,omitempty"`
}

// FuzzSpec configures a coverage-guided fuzzing job.
type FuzzSpec struct {
	Seed    int64 `json:"seed"`
	Budget  int   `json:"budget,omitempty"`
	Workers int   `json:"workers,omitempty"`
	// Compilers selects the compiler set with the CLI -compilers spec
	// syntax (empty = the three byte-code compilers; "+metajit" adds the
	// meta-compiled front-end; native is rejected).
	Compilers string `json:"compilers,omitempty"`
	Minimize  bool   `json:"minimize,omitempty"`
	// SharedCorpus seeds the run from the server's corpus store and
	// merges the run's coverage-increasing corpus back afterwards, so
	// concurrent fuzz clients feed and drain one corpus.
	SharedCorpus bool `json:"sharedCorpus,omitempty"`
}

// Validate rejects malformed specs before they reach the queue.
func (spec *JobSpec) Validate() error {
	switch spec.Type {
	case JobCampaign:
		c := spec.Campaign
		if c == nil {
			c = &CampaignSpec{}
		}
		if c.Workers < 0 {
			return fmt.Errorf("campaign.workers %d: must be >= 0", c.Workers)
		}
		if c.MaxIterations < 0 {
			return fmt.Errorf("campaign.maxIterations %d: must be >= 0", c.MaxIterations)
		}
		if _, err := cogdiff.ParseCompilerSpec(c.Compilers); err != nil {
			return fmt.Errorf("campaign.compilers: %w", err)
		}
	case JobDifftest:
		d := spec.Difftest
		if d == nil || d.Instruction == "" || d.Compiler == "" {
			return fmt.Errorf("difftest job needs difftest.instruction and difftest.compiler")
		}
	case JobFuzz:
		f := spec.Fuzz
		if f == nil {
			return fmt.Errorf("fuzz job needs a fuzz section")
		}
		if f.Budget < 0 {
			return fmt.Errorf("fuzz.budget %d: must be >= 0", f.Budget)
		}
		if f.Workers < 0 {
			return fmt.Errorf("fuzz.workers %d: must be >= 0", f.Workers)
		}
		if _, err := cogdiff.ParseSequenceCompilerSpec(f.Compilers); err != nil {
			return fmt.Errorf("fuzz.compilers: %w", err)
		}
	case "":
		return fmt.Errorf("job spec missing type (campaign, difftest or fuzz)")
	default:
		return fmt.Errorf("unknown job type %q (want campaign, difftest or fuzz)", spec.Type)
	}
	return nil
}

// JobStatus is the wire form of one job (GET /v1/jobs/{id}).
type JobStatus struct {
	ID    string  `json:"id"`
	Type  JobType `json:"type"`
	State State   `json:"state"`
	// Created/Started/Finished are unix milliseconds (0 = not yet).
	Created  int64 `json:"created,omitempty"`
	Started  int64 `json:"started,omitempty"`
	Finished int64 `json:"finished,omitempty"`
	// Error is set for failed jobs.
	Error string `json:"error,omitempty"`
	// Report is the engine's rendered report, present when done. For
	// campaign jobs it is the stable surface, byte-identical to the
	// serial CLI run with the same options.
	Report      string `json:"report,omitempty"`
	Differences int    `json:"differences,omitempty"`
	// Events counts the job's progress events so far.
	Events int `json:"events"`
}

// job is the server-side job record: status and event log under one
// mutex, a condition variable for event followers, and the cancel hook.
type job struct {
	spec JobSpec

	mu     sync.Mutex
	cond   *sync.Cond
	status JobStatus
	events []Event
	cancel context.CancelFunc // non-nil once running
}

func newJob(spec JobSpec) *job {
	j := &job{
		spec: spec,
		status: JobStatus{
			Type:    spec.Type,
			State:   StateQueued,
			Created: time.Now().UnixMilli(), //cogdiff:allow-nondeterminism job timestamps are operational metadata, not report content
		},
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// snapshot copies the status under the lock.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.status
	st.Events = len(j.events)
	return st
}

// requestCancel moves a queued job straight to canceled, or cancels a
// running job's context. Terminal jobs are left alone.
func (s *Server) requestCancel(j *job) bool {
	j.mu.Lock()
	switch {
	case j.status.State == StateQueued:
		j.mu.Unlock()
		s.finish(j, StateCanceled, "")
		return true
	case j.status.State == StateRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	}
	j.mu.Unlock()
	return false
}

// finish moves a job to a terminal state and closes its event stream
// with the final done event. Both happen in one critical section: a
// follower that finds the job terminal stops reading, so it must never
// see the state before the done event is in the log.
func (s *Server) finish(j *job, state State, errMsg string) {
	j.mu.Lock()
	if j.status.State.Terminal() {
		j.mu.Unlock()
		return
	}
	j.status.State = state
	j.status.Error = errMsg
	j.status.Finished = time.Now().UnixMilli() //cogdiff:allow-nondeterminism job timestamps are operational metadata, not report content
	started := j.status.Started
	jtype := j.status.Type
	j.appendLocked(Event{Type: EventDone, State: string(state), Error: errMsg,
		Differences: j.status.Differences})
	j.mu.Unlock()
	j.cond.Broadcast()

	s.reg.LabeledCounter(telemetry.MetricServerJobsCompleted,
		"state", string(state), "type", string(jtype)).Inc()
	if started > 0 {
		s.reg.LabeledHistogram(telemetry.MetricServerJobSeconds, telemetry.DurationBuckets,
			"type", string(jtype)).
			Observe(float64(time.Now().UnixMilli()-started) / 1000) //cogdiff:allow-nondeterminism job timestamps are operational metadata, not report content
	}
}

// runJob executes one job inside a job slot.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if j.status.State != StateQueued {
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	j.cancel = cancel
	j.status.State = StateRunning
	j.status.Started = time.Now().UnixMilli() //cogdiff:allow-nondeterminism job timestamps are operational metadata, not report content
	j.mu.Unlock()

	s.mRunning.Add(1)
	defer s.mRunning.Add(-1)

	var report string
	var differences int
	var err error
	switch j.spec.Type {
	case JobCampaign:
		report, differences, err = s.runCampaign(ctx, j)
	case JobDifftest:
		report, differences, err = s.runDifftest(ctx, j)
	case JobFuzz:
		report, differences, err = s.runFuzz(ctx, j)
	default:
		err = fmt.Errorf("unknown job type %q", j.spec.Type)
	}

	j.mu.Lock()
	j.status.Report = report
	j.status.Differences = differences
	j.mu.Unlock()

	switch {
	case err == nil:
		s.finish(j, StateDone, "")
	case ctx.Err() != nil:
		s.finish(j, StateCanceled, "")
	default:
		s.finish(j, StateFailed, err.Error())
	}
}

func (s *Server) runCampaign(ctx context.Context, j *job) (string, int, error) {
	spec := j.spec.Campaign
	if spec == nil {
		spec = &CampaignSpec{}
	}
	workers := spec.Workers
	if workers == 0 {
		workers = s.cfg.Workers
	}
	compilers, err := cogdiff.ParseCompilerSpec(spec.Compilers)
	if err != nil {
		return "", 0, err
	}
	opts := cogdiff.CampaignOptions{
		Context:               ctx,
		Pristine:              spec.Pristine,
		ConstFoldSignError:    spec.ConstFoldSignError,
		MetaJITGuardSignError: spec.MetaJITGuardSignError,
		Compilers:             compilers,
		MaxIterations:         spec.MaxIterations,
		Workers:               workers,
		Metrics:               s.reg,
		OnUnitDone: func(ev cogdiff.UnitProgress) {
			if gate := s.testUnitGate(); gate != nil {
				gate()
			}
			j.publish(Event{Type: EventUnitCompleted, Compiler: ev.Compiler,
				Instruction: ev.Instruction, Done: ev.Done, Total: ev.Total,
				Differences: ev.Differences})
			if ev.Differences > 0 {
				j.publish(Event{Type: EventDifferenceFound, Compiler: ev.Compiler,
					Instruction: ev.Instruction, Differences: ev.Differences})
			}
		},
	}
	sum, err := cogdiff.RunCampaign(opts)
	if err != nil {
		return "", 0, err
	}
	return sum.StableReport(), sum.TotalDifferences, nil
}

func (s *Server) runDifftest(ctx context.Context, j *job) (string, int, error) {
	if err := ctx.Err(); err != nil {
		return "", 0, err
	}
	spec := j.spec.Difftest
	res, err := cogdiff.TestInstructionWith(spec.Instruction, spec.Compiler, cogdiff.TestConfig{
		Pristine:              spec.Pristine,
		ConstFoldSignError:    spec.ConstFoldSignError,
		MetaJITGuardSignError: spec.MetaJITGuardSignError,
		Metrics:               s.reg,
	})
	if err != nil {
		return "", 0, err
	}
	return res.Render(), len(res.Differences), nil
}

func (s *Server) runFuzz(ctx context.Context, j *job) (string, int, error) {
	spec := j.spec.Fuzz
	workers := spec.Workers
	if workers == 0 {
		workers = s.cfg.Workers
	}
	names, err := cogdiff.ParseSequenceCompilerSpec(spec.Compilers)
	if err != nil {
		return "", 0, err
	}
	kinds, err := cogdiff.CompilerKindsFor(names)
	if err != nil {
		return "", 0, err
	}
	opts := fuzzer.Options{
		Seed:      spec.Seed,
		Budget:    spec.Budget,
		Workers:   workers,
		Compilers: kinds,
		Minimize:  spec.Minimize,
		Metrics:   s.reg,
		OnProgress: func(done, total, corpusSize, causes int) {
			j.publish(Event{Type: EventProgress, Done: done, Total: total,
				Corpus: corpusSize, Differences: causes})
		},
	}
	if spec.SharedCorpus {
		opts.SeedSeqs = s.corpus.Snapshot()
	}
	res, err := fuzzer.RunContext(ctx, opts)
	if err != nil {
		return "", 0, err
	}
	if spec.SharedCorpus {
		s.corpus.Merge(res.Corpus)
	}
	for _, d := range res.Differences {
		j.publish(Event{Type: EventDifferenceFound, Instruction: d.Instrument,
			Compiler: d.Compiler.String(), Differences: d.Count})
	}
	return fuzzer.Report(res), len(res.Differences), nil
}
