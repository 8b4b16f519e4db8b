package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"cogdiff/internal/server"
	"cogdiff/internal/server/client"
)

// runServe implements `cogdiff serve`: start the differential-testing
// server and block until the listener fails or the process receives an
// interrupt. All chatter goes to stderr; stdout stays silent so the
// verb composes in scripts.
func runServe(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8377", "listen address (host:port)")
	workers := fs.Int("workers", 0, "default worker goroutines per job (0 = GOMAXPROCS, 1 = serial)")
	maxJobs := fs.Int("max-jobs", 2, "concurrently running jobs")
	corpusDir := fs.String("corpus-dir", "", "directory persisting the shared fuzzing corpus (empty = in-memory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cogdiff:", err)
		return 1
	}
	if fs.NArg() != 0 {
		usage(stderr)
		return 2
	}
	if err := validateWorkers(*workers); err != nil {
		return fail(err)
	}
	if *maxJobs < 0 {
		return fail(fmt.Errorf("-max-jobs %d: must be >= 0 (0 means the default of 2)", *maxJobs))
	}

	srv, err := server.New(server.Config{
		Workers:   *workers,
		CorpusDir: *corpusDir,
		MaxJobs:   *maxJobs,
	})
	if err != nil {
		return fail(err)
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(fmt.Errorf("-addr %s: %w", *addr, err))
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()

	fmt.Fprintf(stderr, "cogdiff server listening on %s\n", ln.Addr())
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return fail(err)
	}
	return 0
}

// runSubmit implements `cogdiff submit`: build a job spec from the
// subcommand's flags, post it to a running server, follow its progress
// and print the report. The report goes to stdout and everything else
// to stderr, so a submitted campaign pipes exactly like a local one.
func runSubmit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://127.0.0.1:8377", "server base URL")
	poll := fs.Duration("poll", 100*time.Millisecond, "status polling interval")
	connectTimeout := fs.Duration("connect-timeout", 5*time.Second, "how long to wait for the server to answer /healthz")
	progress := fs.Bool("progress", false, "stream the job's SSE events to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cogdiff:", err)
		return 1
	}
	if *poll <= 0 {
		return fail(fmt.Errorf("-poll %s: must be positive", *poll))
	}
	if *connectTimeout <= 0 {
		return fail(fmt.Errorf("-connect-timeout %s: must be positive", *connectTimeout))
	}
	if fs.NArg() < 1 {
		usage(stderr)
		return 2
	}

	spec, code := parseSubmitSpec(fs.Arg(0), fs.Args()[1:], stderr)
	if code != 0 {
		return code
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cl := client.New(*addr)
	if err := cl.WaitHealthy(ctx, *connectTimeout); err != nil {
		return fail(err)
	}
	st, err := cl.Submit(ctx, *spec)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "submitted %s as %s\n", st.Type, st.ID)

	if *progress {
		done := make(chan struct{})
		go func() {
			defer close(done)
			cl.Events(ctx, st.ID, func(ev server.Event) error {
				fmt.Fprintf(stderr, "event %s: %s\n", st.ID, renderEvent(ev))
				return nil
			})
		}()
		defer func() { <-done }()
	}

	final, err := cl.Wait(ctx, st.ID, *poll)
	if err != nil {
		return fail(err)
	}
	switch final.State {
	case server.StateDone:
		fmt.Fprint(stdout, final.Report)
		return 0
	case server.StateCanceled:
		return fail(fmt.Errorf("job %s was canceled", final.ID))
	default:
		return fail(fmt.Errorf("job %s failed: %s", final.ID, final.Error))
	}
}

// parseSubmitSpec builds a JobSpec from one submit subcommand.
func parseSubmitSpec(kind string, args []string, stderr io.Writer) (*server.JobSpec, int) {
	fail := func(err error) (*server.JobSpec, int) {
		fmt.Fprintln(stderr, "cogdiff:", err)
		return nil, 1
	}
	switch kind {
	case "campaign":
		fs := flag.NewFlagSet("submit campaign", flag.ContinueOnError)
		fs.SetOutput(stderr)
		pristine := fs.Bool("pristine", false, "run the defect-free VM configuration")
		defectConstfold := fs.Bool("defect-constfold", false, "enable the pass-targeted constant-folding defect")
		defectMetaGuard := fs.Bool("defect-metajit-guard", false, "enable the meta-compiler guard-sign defect (metajit only)")
		compilers := fs.String("compilers", "", "compiler set: exact list like simple,metajit or additions like +metajit")
		workers := fs.Int("workers", 0, "worker goroutines for the campaign (0 = the server's default)")
		if err := fs.Parse(args); err != nil {
			return nil, 2
		}
		if err := validateWorkers(*workers); err != nil {
			return fail(err)
		}
		return &server.JobSpec{Type: server.JobCampaign, Campaign: &server.CampaignSpec{
			Pristine:              *pristine,
			ConstFoldSignError:    *defectConstfold,
			MetaJITGuardSignError: *defectMetaGuard,
			Compilers:             *compilers,
			Workers:               *workers,
		}}, 0
	case "difftest":
		fs := flag.NewFlagSet("submit difftest", flag.ContinueOnError)
		fs.SetOutput(stderr)
		pristine := fs.Bool("pristine", false, "test the defect-free VM configuration")
		defectConstfold := fs.Bool("defect-constfold", false, "enable the pass-targeted constant-folding defect")
		defectMetaGuard := fs.Bool("defect-metajit-guard", false, "enable the meta-compiler guard-sign defect (metajit only)")
		if err := fs.Parse(args); err != nil {
			return nil, 2
		}
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("submit difftest needs <instruction> <compiler>"))
		}
		return &server.JobSpec{Type: server.JobDifftest, Difftest: &server.DifftestSpec{
			Instruction:           fs.Arg(0),
			Compiler:              fs.Arg(1),
			Pristine:              *pristine,
			ConstFoldSignError:    *defectConstfold,
			MetaJITGuardSignError: *defectMetaGuard,
		}}, 0
	case "fuzz":
		fs := flag.NewFlagSet("submit fuzz", flag.ContinueOnError)
		fs.SetOutput(stderr)
		seed := fs.Int64("seed", 2022, "engine RNG seed")
		budget := fs.Int("budget", 1000, "execution budget (iterations)")
		workers := fs.Int("workers", 0, "worker goroutines per batch (0 = the server's default)")
		compilers := fs.String("compilers", "", "compiler set: exact list like simple,metajit or additions like +metajit")
		minimize := fs.Bool("minimize", true, "reduce every difference to a 1-minimal sequence")
		shared := fs.Bool("shared-corpus", false, "seed from and merge back into the server's shared corpus")
		if err := fs.Parse(args); err != nil {
			return nil, 2
		}
		if err := validateWorkers(*workers); err != nil {
			return fail(err)
		}
		if *budget <= 0 {
			return fail(fmt.Errorf("-budget %d: the iteration budget must be positive", *budget))
		}
		return &server.JobSpec{Type: server.JobFuzz, Fuzz: &server.FuzzSpec{
			Seed:         *seed,
			Budget:       *budget,
			Workers:      *workers,
			Compilers:    *compilers,
			Minimize:     *minimize,
			SharedCorpus: *shared,
		}}, 0
	default:
		return fail(fmt.Errorf("unknown submit subcommand %q (want campaign, difftest or fuzz)", kind))
	}
}

// renderEvent formats one SSE event for the -progress stream.
func renderEvent(ev server.Event) string {
	switch ev.Type {
	case server.EventUnitCompleted:
		return fmt.Sprintf("unit %d/%d %s %s (%d differences)",
			ev.Done, ev.Total, ev.Compiler, ev.Instruction, ev.Differences)
	case server.EventDifferenceFound:
		return fmt.Sprintf("differences: %d in %s on %s", ev.Differences, ev.Instruction, ev.Compiler)
	case server.EventProgress:
		return fmt.Sprintf("fuzz %d/%d execs, corpus %d, causes %d", ev.Done, ev.Total, ev.Corpus, ev.Differences)
	case server.EventDone:
		return fmt.Sprintf("done: %s", ev.State)
	}
	return ev.Type
}
