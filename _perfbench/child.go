package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"

	"cogdiff"
	"cogdiff/internal/heap"
)

// childOut is what one fresh measured process reports to the parent.
type childOut struct {
	// SetupS is the CPU time from exec to ready; CPUS and OpS are the
	// CPU and wall time of the measured operation.
	SetupS float64 `json:"setupS"`
	CPUS   float64 `json:"cpuS"`
	// CalS is the CPU time of the calibration run right after the
	// operation, in the same process.
	CalS    float64 `json:"calS"`
	OpS     float64 `json:"opS"`
	Mallocs float64 `json:"mallocs"`
	GCShare float64 `json:"gcShare"`
	// Output is the oracle surface: Table 2 + Table 3, or the fuzz report.
	Output string `json:"output"`
	Units  int    `json:"units"`
	// Paths is the campaign's curated (tested) paths, summed over the
	// compilers.
	Paths int `json:"paths,omitempty"`
	// Replay is non-empty when a fuzz child's reduced sequences failed to
	// reproduce their differences.
	Replay string `json:"replay,omitempty"`
	// Serve children only: the served jobs, their measured latencies, and
	// what the event streams showed.
	Attempted   int       `json:"attempted,omitempty"`
	Failed      int       `json:"failed,omitempty"`
	Latencies   []float64 `json:"latencies,omitempty"`
	MissingDone int       `json:"missingDone,omitempty"`
	MaxBacklog  int64     `json:"maxBacklog,omitempty"`
	// QueueS is the summed time served jobs waited outside a job slot.
	QueueS float64 `json:"queueS,omitempty"`
	// Traced children only: the operation's wall seconds split over the
	// layers by CPU profile, and the program's own telemetry counts.
	Layers map[layer]float64 `json:"layers,omitempty"`
	Counts map[string]int64  `json:"counts,omitempty"`
}

// spawn runs one operation in a fresh copy of this binary, so every
// process-wide cache of the program (verified-clean IR, metacompile
// plans, booted heap pool, compiled code) starts empty, as it does for a
// `cogdiff campaign` or `cogdiff fuzz` user. The operations run with one
// worker, and the child runs with GOMAXPROCS=1: with a second P the
// garbage collector's idle mark workers run on the spare CPU whenever it
// is free, adding about a quarter to a child's CPU time by an amount
// that depends on what else the machine runs. It returns the child's
// report and its peak RSS in MiB.
func spawn(mode string, args ...string) (*childOut, float64, error) {
	return spawnWith(nil, mode, args...)
}

// spawnWith is spawn with stdin as the child's standard input.
func spawnWith(stdin []byte, mode string, args ...string) (*childOut, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(exe, append([]string{"-child", mode, "--"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stdin = bytes.NewReader(stdin)
	var stdout bytes.Buffer
	stderr := &stderrFilter{}
	cmd.Stdout = &stdout
	cmd.Stderr = stderr
	err = cmd.Run()
	stderr.flush()
	if err != nil {
		return nil, 0, fmt.Errorf("child %s %v: %w", mode, args, err)
	}
	var out childOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, 0, fmt.Errorf("child %s %v: bad report: %w", mode, args, err)
	}
	var rssMB float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &out, rssMB, nil
}

// runChild is the child side of spawn.
func runChild(mode string, args []string) error {
	if mode == "serve" || mode == "serve-traced" || mode == "serve-setup" {
		// A server's set-up: exec and runtime init, then a server that
		// answers /healthz.
		ls, err := startServer(runtime.NumCPU())
		if err != nil {
			return err
		}
		defer ls.stop()
		setup := cpuSeconds()
		out := &childOut{}
		if mode != "serve-setup" {
			if len(args) != 1 {
				return fmt.Errorf("serve child needs a seed")
			}
			seed, err := strconv.ParseInt(args[0], 10, 64)
			if err != nil {
				return err
			}
			if out, err = childServe(ls, seed, mode == "serve-traced"); err != nil {
				return err
			}
		}
		out.SetupS, out.CalS = setup, calibrate()
		return json.NewEncoder(os.Stdout).Encode(out)
	}
	// Set-up as a user pays it before any work: exec and runtime init
	// (already behind us), catalog resolution and one heap boot.
	if len(cogdiff.Instructions()) == 0 {
		return fmt.Errorf("empty instruction catalog")
	}
	heap.NewBootedObjectMemory()
	setup := cpuSeconds()

	var out *childOut
	var err error
	switch mode {
	case "campaign", "campaign-traced":
		out, err = childCampaign(mode == "campaign-traced")
	case "fuzz", "fuzz-check", "fuzz-traced":
		if len(args) != 2 {
			return fmt.Errorf("fuzz child needs seed and budget")
		}
		seed, err1 := strconv.ParseInt(args[0], 10, 64)
		budget, err2 := strconv.Atoi(args[1])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad fuzz child arguments %q", args)
		}
		out, err = childFuzz(seed, budget, mode == "fuzz-check", mode == "fuzz-traced")
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	out.SetupS = setup
	out.CalS = calibrate()
	return json.NewEncoder(os.Stdout).Encode(out)
}
