// Command alc-sim replays one deterministic simulation seed with verbose
// tracing. It is the debugging companion to the internal/sim test suite:
// when TestSimSeeds reports a failing seed, this command re-runs exactly
// that schedule — same fault timeline, same workload op streams — and
// prints every failure event, the schedule, and the checker verdict.
//
// Usage:
//
//	alc-sim -seed=123456789           # replay one seed, verbose
//	alc-sim -seed=123456789 -n=20     # replay it 20 times (flaky hunts)
//	alc-sim -seed=123456789 -trace    # also dump the protocol event trace
//
// With -trace, failing runs print the tail of the unified internal/trace
// ring buffer: lease-manager transitions and transaction lifecycle events
// from every replica, interleaved in emission order.
//
// Exit status is 1 if any run fails, 0 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/alcstm/alc/internal/sim"
	"github.com/alcstm/alc/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "alc-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed    = flag.Int64("seed", 0, "schedule seed to replay (required)")
		n       = flag.Int("n", 1, "number of replays (a failure anywhere fails the command)")
		threads = flag.Int("threads", 0, "load threads per replica (0 = harness default)")
		load    = flag.Duration("load", 0, "load-phase duration (0 = harness default)")
		quiet   = flag.Bool("q", false, "suppress event tracing, print only summaries")
		traceOn = flag.Bool("trace", false, "dump the protocol event trace for failing runs")
		durable = flag.Bool("durable", false, "run with the durability tier: WAL + snapshots, crash-restart recovery from disk")
	)
	flag.Parse()
	if *seed == 0 && flag.Lookup("seed").Value.String() == "0" {
		// Seed 0 is a legal schedule seed, but an unset flag is the common
		// mistake; require it explicitly.
		if !flagPassed("seed") {
			flag.Usage()
			return fmt.Errorf("missing -seed")
		}
	}

	failures := 0
	for i := 0; i < *n; i++ {
		cfg := sim.Config{Seed: *seed, Threads: *threads, Load: *load, Durable: *durable}
		if !*quiet {
			cfg.Logf = func(format string, args ...any) {
				fmt.Printf("  "+format+"\n", args...)
			}
		}
		var tracer *trace.Tracer
		if *traceOn {
			tracer = trace.New(1 << 14)
			cfg.Tracer = tracer
		}
		res := sim.Run(cfg)
		fmt.Printf("run %d/%d: %s\n", i+1, *n, res.Summary())
		if !res.OK() {
			failures++
			if tracer != nil {
				for _, e := range tracer.Events() {
					fmt.Println("  " + e.Format(tracer.Start()))
				}
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d/%d runs failed", failures, *n)
	}
	return nil
}

func flagPassed(name string) bool {
	passed := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			passed = true
		}
	})
	return passed
}
