// Command alc-bench regenerates the paper's evaluation tables and figures
// (§5) on the simulated cluster, plus the ablations documented in DESIGN.md.
//
//	alc-bench -experiment fig3a -duration 1s
//	alc-bench -experiment all -ab-ceiling -1     # every table on the native sequencer
//
// `alc-bench -h` lists the experiments and the scale knobs; both are printed
// from the one experiment table below. Every table's title names the
// sequencer regime its rows ran under (-ab-ceiling: the calibrated 1.2ms
// pacing that models the paper's atomic broadcast, or the native one).
//
// The real-TCP stack is measured by benchmark/ (bash benchmark/run.sh), not
// here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/alcstm/alc/internal/bank"
	"github.com/alcstm/alc/internal/bench"
	"github.com/alcstm/alc/internal/lee"
	"github.com/alcstm/alc/internal/obs"
)

// options is what the flags resolve to. base carries -ab-ceiling: every
// experiment derives each cell's Params from it, so the flag reaches every
// cluster without any experiment naming it.
type options struct {
	base         bench.Params
	replicas     []int // never empty
	duration     time.Duration
	bank         bench.BankConfig
	lee          bench.LeeConfig
	latCommits   int
	batchThreads int
}

// at returns the base Params for a single-size experiment.
func (o options) at(n int) bench.Params {
	p := o.base
	p.Replicas = n
	return p
}

// table is what every experiment returns: bench.Fig3Rows, Fig4Rows,
// LatencyRows, AblationRows or BatchRows.
type table interface {
	Print(w io.Writer, title string)
	WriteCSV(c *bench.CSVWriter, experiment string) error
}

// experiment is one row of the table that the usage text, the -experiment
// help, the unknown-name error and the order of `all` are derived from.
type experiment struct {
	name, what string
	run        func(o options) (title string, t table, err error)
}

var experiments = []experiment{
	{"fig3a", "Bank, no conflict (Fig. 3a)", func(o options) (string, table, error) {
		rows, err := bench.RunFig3(o.base, o.replicas, bank.NoConflict, o.bank)
		return "Figure 3(a) — Bank benchmark, no conflict (throughput, commits/s)", rows, err
	}},
	{"fig3b", "Bank, high conflict (Fig. 3b)", func(o options) (string, table, error) {
		rows, err := bench.RunFig3(o.base, o.replicas, bank.HighConflict, o.bank)
		return "Figure 3(b) — Bank benchmark, high conflict (throughput + abort rate)", rows, err
	}},
	{"fig4", "Lee-TM speed-up + aborts (Fig. 4a/4b)", func(o options) (string, table, error) {
		rows, err := bench.RunFig4(o.base, o.replicas, o.lee)
		return "Figure 4 — Lee-TM benchmark (a: speed-up ALC vs CERT, b: abort rate)", rows, err
	}},
	{"latency", "§4.5 commit-latency decomposition (n = first of -replicas)", func(o options) (string, table, error) {
		n := o.replicas[0]
		rows, err := bench.RunLatency(o.at(n), o.latCommits)
		return fmt.Sprintf("§4.5 — Commit-phase latency by protocol variant (n=%d, one-way latency %v)",
			n, bench.DefaultLatency), rows, err
	}},
	{"ablation-opt", "§4.5 optimization ablation (n = first of -replicas)", func(o options) (string, table, error) {
		n := o.replicas[0]
		rows, err := bench.RunAblationOpt(o.at(n), o.bank)
		return fmt.Sprintf("Ablation — §4.5 optimizations on high-conflict bank (n=%d)", n), rows, err
	}},
	{"ablation-cc", "conflict-class granularity sweep", func(o options) (string, table, error) {
		const n = 4
		rows, err := bench.RunAblationCC(o.at(n), []int{1, 2, 8, 64, 0}, o.bank)
		return fmt.Sprintf("Ablation — conflict-class granularity on no-conflict bank (n=%d)", n), rows, err
	}},
	{"ablation-bloom", "D2STM Bloom size/abort trade-off", func(o options) (string, table, error) {
		rows, err := bench.RunAblationBloom(o.at(3), []float64{0, 0.001, 0.01, 0.05, 0.15}, o.duration)
		return "Ablation — CERT read-set Bloom encoding: size vs spurious aborts (D2STM trade-off)", rows, err
	}},
	{"ablation-locality", "§6 rendezvous-routed submission (n = first of -replicas)", func(o options) (string, table, error) {
		n := o.replicas[0]
		rows, err := bench.RunAblationLocality(o.at(n), o.duration)
		return fmt.Sprintf("Ablation — §6 locality-aware routing on high-conflict bank (n=%d)", n), rows, err
	}},
	{"ablation-routing", "live affinity routing vs oblivious placement (n = first of -replicas)", func(o options) (string, table, error) {
		n := o.replicas[0]
		rows, err := bench.RunAblationRouting(o.at(n), o.duration)
		return fmt.Sprintf("Ablation — locality-aware routing: live affinity map vs oblivious placement (n=%d, zipfian s=%.1f over %d pairs)",
			n, bench.RoutingSkew, bench.RoutingPairs), rows, err
	}},
	{"ablation-batch", "group-commit batching + parallel apply (-batch-threads)", func(o options) (string, table, error) {
		const n = 4
		cfg := o.bank
		cfg.Threads = o.batchThreads
		rows, err := bench.RunAblationBatch(o.at(n), cfg)
		return fmt.Sprintf("Ablation — group-commit batching + parallel apply on sharded bank (n=%d, %d threads/replica)",
			n, o.batchThreads), bench.BatchRows{AblationRows: rows}, err
	}},
	{"ablation-shard", "horizontal sharding, S in {1,2,4}; both sequencer regimes unless -ab-ceiling picks one", func(o options) (string, table, error) {
		// ROADMAP item 1's decision table: the calibrated rows are where
		// sharding's recorded gain comes from, the native rows are what this
		// repository's own sequencer gives.
		const n = 4
		ceilings := []time.Duration{o.base.ABCeiling}
		if o.base.ABCeiling == 0 {
			ceilings = []time.Duration{0, -1}
		}
		var rows bench.AblationRows
		for _, ceiling := range ceilings {
			base := o.at(n)
			base.ABCeiling = ceiling
			part, err := bench.RunAblationShard(base, []int{1, 2, 4}, o.duration)
			if err != nil {
				return "", nil, err
			}
			rows = append(rows, part...)
		}
		return fmt.Sprintf("Ablation — horizontal sharding: S lease/broadcast groups under lease rotation (n=%d, disjoint + 10%% cross-shard mixes)", n), rows, nil
	}},
}

func names() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
}

// runner runs one experiment and emits its table. Tests substitute a stub.
type runner func(e experiment, o options, stdout io.Writer, csvw *bench.CSVWriter) error

func runExperiment(e experiment, o options, stdout io.Writer, csvw *bench.CSVWriter) error {
	title, table, err := e.run(o)
	if err != nil {
		return err
	}
	table.Print(stdout, title)
	if csvw != nil {
		return table.WriteCSV(csvw, e.name)
	}
	return nil
}

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr, runExperiment)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, "alc-bench:", err)
	os.Exit(1)
}

func run(args []string, stdout, stderr io.Writer, runOne runner) error {
	fs := flag.NewFlagSet("alc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experimentArg = fs.String("experiment", "all", strings.Join(names(), "|")+"|all")
		replicaArg    = fs.String("replicas", "2,3,4,5,6,7,8", "comma-separated cluster sizes for the sweeps")
		duration      = fs.Duration("duration", 2*time.Second, "measured duration per throughput cell")
		latCommits    = fs.Int("latency-commits", 300, "commits per latency cell")
		grid          = fs.Int("grid", 64, "Lee board dimension (grid x grid)")
		nets          = fs.Int("nets", 160, "Lee net count")
		workPerRead   = fs.Duration("work-per-read", 100*time.Microsecond, "Lee per-cell expansion cost (transaction length model)")
		csvPath       = fs.String("csv", "", "append results in long-format CSV to this file")
		batchThreads  = fs.Int("batch-threads", 32, "committer threads per replica for ablation-batch")
		httpAddr      = fs.String("http", "", "serve /metrics, /debug/alc and /debug/pprof on this address while the benchmarks run")
	)
	var abCeiling time.Duration
	fs.Func("ab-ceiling", "sequencer pacing per ordered message (`duration`), for every experiment: 0 (default) = calibrated "+
		bench.DefaultOrderInterval.String()+", negative (-1) = native uncapped AB, a duration = override", func(s string) (err error) {
		if n, nerr := strconv.Atoi(s); nerr == nil && n < 0 {
			abCeiling = time.Duration(n) // a bare "-1": only the sign matters
			return nil
		}
		abCeiling, err = time.ParseDuration(s)
		return err
	})
	fs.Usage = func() {
		fmt.Fprintln(stderr, "Usage: alc-bench [flags]\n\nExperiments (-experiment NAME; \"all\" runs them in this order):")
		for _, e := range experiments {
			fmt.Fprintf(stderr, "  %-18s %s\n", e.name, e.what)
		}
		fmt.Fprintln(stderr, "\nFlags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	selected := experiments
	if *experimentArg != "all" {
		selected = nil
		for _, e := range experiments {
			if e.name == *experimentArg {
				selected = []experiment{e}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown experiment %q (want one of %s, all)",
				*experimentArg, strings.Join(names(), ", "))
		}
	}
	replicas, err := parseInts(*replicaArg)
	if err != nil {
		return err
	}
	if *httpAddr != "" {
		// Benchmark clusters auto-register with obs.Default as c<n>-r<i>, so
		// one server exposes whichever cluster is currently running — handy
		// for watching per-stage latency histograms live during a sweep.
		srv, err := obs.Serve(*httpAddr, obs.Default)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "observability on http://%s/{metrics,debug/alc,debug/pprof}\n", srv.Addr())
	}
	var csvw *bench.CSVWriter
	if *csvPath != "" {
		f, err := os.OpenFile(*csvPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		csvw = bench.NewCSVWriter(f)
		defer csvw.Flush() //nolint:errcheck // best-effort on exit
	}

	o := options{
		base:         bench.Params{ABCeiling: abCeiling},
		replicas:     replicas,
		duration:     *duration,
		bank:         bench.BankConfig{Duration: *duration, Warmup: 300 * time.Millisecond},
		lee:          bench.LeeConfig{Board: lee.GenConfig{W: *grid, H: *grid, Nets: *nets, Seed: 42}, WorkPerRead: *workPerRead},
		latCommits:   *latCommits,
		batchThreads: *batchThreads,
	}
	for _, e := range selected {
		if err := runOne(e, o, stdout, csvw); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if len(selected) > 1 {
			fmt.Fprintln(stdout)
		}
	}
	return nil
}

// parseInts parses the -replicas list; the result is never empty.
func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad replica count %q: %w", p, err)
		}
		out = append(out, n)
	}
	return out, nil
}
