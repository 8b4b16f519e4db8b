package concolic

import (
	"errors"
	"time"

	"cogdiff/internal/heap"
	"cogdiff/internal/interp"
	"cogdiff/internal/solver"
	"cogdiff/internal/sym"
	"cogdiff/internal/telemetry"
)

// PathResult is one discovered execution path of an instruction: the model
// that reaches it, the recorded path conditions, the exit condition and
// copies of the abstract input and output frames (§3.2).
type PathResult struct {
	Path  sym.Path
	Model *sym.Model
	Exit  interp.Exit

	// InputFrame and OutputFrame are deep copies taken before and after
	// the execution; instructions have side effects, so they must be
	// distinct objects.
	InputFrame  *interp.Frame
	OutputFrame *interp.Frame
}

// Exploration is the full concolic exploration of one instruction.
type Exploration struct {
	Target   Target
	Universe *sym.Universe
	// Paths are the supported execution paths, in discovery order.
	Paths []*PathResult
	// CuratedOut counts paths dropped because the prototype cannot handle
	// them: solver-unsupported constraints (bitwise), over-complex
	// formulas, or instructions marked unsupported (§5.2).
	CuratedOut int
	// Iterations is the number of concolic executions performed.
	Iterations int
	// Duration is the wall-clock exploration time (Fig. 6).
	Duration time.Duration
}

// Options tunes an exploration.
type Options struct {
	// MaxIterations bounds the number of concolic executions per
	// instruction (runaway protection; generous by default).
	MaxIterations int
	// InterpreterDefects forwards seeded interpreter defects.
	InterpreterDefects interp.DefectSwitches
	// Metrics, when non-nil, counts solver invocations and each finished
	// exploration's paths, curated-out paths and iterations. Exploration
	// results are unaffected; the counters are a pure sink.
	Metrics *telemetry.Registry
	// NoReuse disables the booted-object-memory pool: every concolic
	// execution boots a fresh heap. Booting is deterministic, so results
	// are byte-identical either way; the determinism suite flips this to
	// pin that claim.
	NoReuse bool
}

// DefaultOptions returns the standard exploration settings.
func DefaultOptions() Options {
	return Options{MaxIterations: 400}
}

// Explorer drives concolic path exploration over VM instructions.
type Explorer struct {
	Prims interp.PrimitiveTable
	Opts  Options

	// Counters resolved once; nil when metrics are off.
	solverCalls, paths, curatedOut, iterations *telemetry.Counter
}

// NewExplorer builds an explorer using the given native-method table.
func NewExplorer(prims interp.PrimitiveTable, opts Options) *Explorer {
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = DefaultOptions().MaxIterations
	}
	return &Explorer{
		Prims:       prims,
		Opts:        opts,
		solverCalls: opts.Metrics.Counter(telemetry.MetricSolverCalls),
		paths:       opts.Metrics.Counter(telemetry.MetricPathsExplored),
		curatedOut:  opts.Metrics.Counter(telemetry.MetricCuratedOut),
		iterations:  opts.Metrics.Counter(telemetry.MetricExploreIterations),
	}
}

// workItem is a constraint prefix scheduled for solving.
type workItem struct {
	assumptions []sym.Constraint
}

// Explore discovers the execution paths of one instruction: the classic
// concolic loop of §2.3, except it never stops at errors — every exit
// condition is a first-class result.
func (e *Explorer) Explore(t Target) *Exploration {
	start := time.Now() //cogdiff:allow-nondeterminism exploration timing feeds telemetry histograms only
	u := sym.NewUniverse()
	ex := &Exploration{Target: t, Universe: u}

	worklist := []workItem{{}}
	seenPaths := map[string]bool{}
	tried := map[string]bool{"": true}
	// sig holds the current path's signature and ends[i] the offset where
	// its condition i ends, so every child key below is a prefix of sig
	// plus one negated condition, rendered into key without a string.
	var sig, key []byte
	var ends []int

	for len(worklist) > 0 && ex.Iterations < e.Opts.MaxIterations {
		item := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]

		e.solverCalls.Inc()
		model, err := solver.Solve(u, item.assumptions)
		if err != nil {
			if !errors.Is(err, solver.ErrUnsat) {
				// Bitwise or over-complex constraints: curated out, like
				// the paths the paper's prototype cannot initialize.
				ex.CuratedOut++
			}
			continue
		}

		res, runErr := e.runOnce(t, u, model, len(item.assumptions))
		ex.Iterations++
		if runErr != nil {
			ex.CuratedOut++
			continue
		}

		sig, ends = sig[:0], ends[:0]
		for i, c := range res.Path {
			if i > 0 {
				sig = append(sig, '&')
			}
			sig = sym.AppendConstraint(sig, c.C)
			ends = append(ends, len(sig))
		}
		if !seenPaths[string(sig)] {
			seenPaths[string(sig)] = true
			if res.Exit.Kind == interp.ExitUnsupported {
				ex.CuratedOut++
			} else {
				// Refine the witness: solve the full recorded path so the
				// stored model is the canonical solver witness for every
				// condition (the concrete values of Table 1), not just
				// the parent prefix.
				e.solverCalls.Inc()
				if refined, err := solver.Solve(u, res.Path.Constraints()); err == nil {
					res.Model = refined
				}
				ex.Paths = append(ex.Paths, res)
			}
		}

		// Generational expansion: negate every recorded condition beyond
		// the assumed prefix. A child's key is the signature of its
		// constraint list: the parent's first i conditions, then the
		// negated condition i.
		for i := len(item.assumptions); i < len(res.Path); i++ {
			neg := sym.Negate(res.Path[i].C)
			key = key[:0]
			if i > 0 {
				key = append(append(key, sig[:ends[i-1]]...), '&')
			}
			key = sym.AppendConstraint(key, neg)
			if tried[string(key)] {
				continue
			}
			tried[string(key)] = true
			child := make([]sym.Constraint, i+1)
			for j, c := range res.Path[:i] {
				child[j] = c.C
			}
			child[i] = neg
			worklist = append(worklist, workItem{assumptions: child})
		}
	}
	ex.Duration = time.Since(start) //cogdiff:allow-nondeterminism exploration timing feeds telemetry histograms only
	e.paths.Add(int64(len(ex.Paths)))
	e.curatedOut.Add(int64(ex.CuratedOut))
	e.iterations.Add(int64(ex.Iterations))
	return ex
}

// runOnce performs one concolic execution under a model. The execution
// borrows a pooled booted object memory (the result captures frames and
// path data by value, never the memory itself) and releases it on normal
// return; a contained panic abandons it to the GC instead.
func (e *Explorer) runOnce(t Target, u *sym.Universe, model *sym.Model, assumed int) (*PathResult, error) {
	var om *heap.ObjectMemory
	if e.Opts.NoReuse {
		om = heap.NewBootedObjectMemory()
	} else {
		om = heap.AcquireBooted()
	}
	b := NewFrameBuilder(om, u, model)
	frame, err := b.BuildFrame(t)
	if err != nil {
		if !e.Opts.NoReuse {
			heap.ReleaseBooted(om)
		}
		return nil, err
	}
	input := frame.Clone()

	tr := newTracer(u, assumed)
	ctx := interp.NewCtx(om, frame, t.Method)
	ctx.Tracer = tr
	ctx.Primitives = e.Prims
	ctx.InterpreterDefects = e.Opts.InterpreterDefects

	exit := t.run(ctx, e.Prims)
	res := &PathResult{
		Path:        tr.path,
		Model:       model,
		Exit:        exit,
		InputFrame:  input,
		OutputFrame: frame.Clone(),
	}
	if !e.Opts.NoReuse {
		heap.ReleaseBooted(om)
	}
	return res, nil
}
