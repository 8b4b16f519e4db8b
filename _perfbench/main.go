// Command perfbench is the repository benchmark: three workloads (the
// whole-catalog campaign, seeded sequence fuzzing and served difftest
// jobs) measured end to end with tracing off, or split over the layers
// of the differential pipeline with tracing on. It checks every
// workload's output against an oracle and prints one JSON result line.
//
//	perfbench --workload campaign|fuzz|serve --seed n --seconds s --trace 0|1
//
// See README.md for why each workload exists and what each metric
// predicts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one workload invocation's accounting: every attempted operation
// either succeeds or is counted as failed with its reason on stderr.
type run struct {
	seconds time.Duration
	res     result
}

func (r *run) attempt(err error) {
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}

func (r *run) set(name, unit string, v float64) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	workload := flag.String("workload", "", "campaign, fuzz or serve")
	seed := flag.Int64("seed", 1, "workload seed (campaign ignores it: the paper fixes the catalog)")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 measures the per-layer split instead of the end-to-end metrics")
	child := flag.String("child", "", "internal: run one measured operation in this fresh process")
	flag.Parse()

	if *child != "" {
		if err := runChild(*child, flag.Args()); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
			os.Exit(1)
		}
		return
	}
	r := &run{seconds: time.Duration(*seconds) * time.Second, res: result{Metrics: map[string]metric{}}}
	var err error
	switch *workload {
	case "campaign":
		err = campaignWorkload(r, *trace == 1)
	case "fuzz":
		err = fuzzWorkload(r, *seed, *trace == 1)
	case "serve":
		err = serveWorkload(r, *seed, *trace == 1)
	default:
		err = fmt.Errorf("unknown workload %q (want campaign, fuzz or serve)", *workload)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if *trace == 1 {
		// A traced result lists every per-layer metric; a layer the run
		// could not measure reads 0.
		for _, m := range perLayer {
			if _, ok := r.res.Metrics[m.name]; !ok {
				r.set(m.name, m.unit, 0)
			}
		}
	}
	if r.res.Attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		os.Exit(1)
	}
	r.res.Correct = r.res.Failed == 0
	out, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// median and quantile use linear interpolation between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianOfMins splits xs into consecutive groups of size n and returns
// the median of each group's minimum. Interference from a shared machine
// only ever adds time, so the cheapest repeat in a group is the closest
// to the operation's own cost.
func medianOfMins(xs []float64, n int) float64 {
	var mins []float64
	for i := 0; i+n <= len(xs); i += n {
		mins = append(mins, quantile(xs[i:i+n], 0))
	}
	if len(mins) == 0 {
		return median(xs)
	}
	return median(mins)
}

// cpuSeconds is the CPU time (user plus system, all threads) this process
// has used so far. Unlike wall time it excludes the time a shared
// machine's hypervisor gives this VM's CPUs to other tenants.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runtimeSample reads the Go runtime's allocation and CPU-class counters.
type runtimeSample struct {
	mallocs uint64
	gcCPU   float64
	allCPU  float64
}

var runtimeMetricNames = []string{"/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func sampleRuntime() runtimeSample {
	// The CPU-class estimates are refreshed by garbage collection; force
	// one so the sample covers the interval up to now.
	runtime.GC()
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var out runtimeSample
	if ss[0].Value.Kind() == metrics.KindUint64 {
		out.mallocs = ss[0].Value.Uint64()
	}
	if ss[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = ss[1].Value.Float64()
	}
	if ss[2].Value.Kind() == metrics.KindFloat64 {
		out.allCPU = ss[2].Value.Float64()
	}
	return out
}

// runtimeDelta is the allocation count and GC share of CPU between two
// samples.
func runtimeDelta(a, b runtimeSample) (mallocs float64, gcShare float64) {
	mallocs = float64(b.mallocs - a.mallocs)
	if cpu := b.allCPU - a.allCPU; cpu > 0 {
		gcShare = (b.gcCPU - a.gcCPU) / cpu
	}
	return mallocs, gcShare
}
