// Command benchmark is the repository's performance benchmark: it builds
// the shipping stack in one process (three replicas over real loopback TCP,
// a client port on each), drives it closed-loop with one of four workloads,
// checks the result and prints the metrics BENCHMARK.json declares.
//
//	benchmark --workload lease-local --seed 1 --seconds 20 --trace 0
//	benchmark --workload lease-local --seed 1 --seconds 20 --trace 1
//	benchmark -aa 5
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// watchdogAfter: a run that has not finished by then is wedged; it dumps its
// goroutines and fails instead of hanging whatever started it.
const watchdogAfter = 120 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 20, "length of the measured window")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes the span file")
		out     = flag.String("out", "", "span file of the traced run (default benchmark/out/<workload>.trace.jsonl)")
		aa      = flag.Int("aa", 0, "A/A mode: run two interleaved sets of this many untraced runs per workload and compare them")
	)
	flag.Parse()

	if *aa > 0 {
		if err := runAA(*aa, *seconds, *name); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}

	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be in (0, 60]")
		os.Exit(2)
	}

	watchdog := time.AfterFunc(watchdogAfter, func() {
		fmt.Fprintf(os.Stderr, "benchmark: no result after %v, goroutines:\n", watchdogAfter)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		removeAllTempDirs()
		os.Exit(3)
	})
	signals := make(chan os.Signal, 1)
	signal.Notify(signals, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-signals
		removeAllTempDirs()
		os.Exit(130)
	}()
	rep, err := runWorkload(options{
		workload: w, seed: *seed, trace: *trace != 0, out: *out,
		window: time.Duration(*seconds * float64(time.Second)), warmup: warmup,
	})
	watchdog.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// correct is the closed loop's verdict. What the ungated open-loop probe
// does to the cluster afterwards is reported, not judged (see runWorkload).
func (r *report) correct() bool { return r.Invariants.ok() }

func (r *report) result() result {
	return result{Correct: r.correct(), Attempted: r.Window.Attempted, Failed: r.Window.Failed, Metrics: r.Metrics}
}

// print writes the full report, indented, and then the result on one line.
func (r *report) print(w *os.File) error {
	if v := r.Invariants; v.LostAckedWrites > 0 || !v.ok() {
		fmt.Fprintf(os.Stderr, "benchmark: WARNING: %s: %d of %d acknowledged writes lost, %d divergent keys, %d pair violations (ROADMAP P0; ceiling 1 in %d)\n",
			r.Workload, v.LostAckedWrites, v.AckedWrites, v.ReplicaDivergentKeys, v.BankPairViolations, lostCeiling)
	}
	full, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	line, err := json.Marshal(r.result())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, line)
	return err
}
