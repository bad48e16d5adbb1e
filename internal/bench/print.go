package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"
	"time"
)

// The four row shapes the experiments produce. Each prints under a title
// (Print) and exports as long-format CSV (WriteCSV); cmd/alc-bench drives
// every experiment through those two methods.
type (
	Fig3Rows     []Fig3Row
	Fig4Rows     []Fig4Row
	LatencyRows  []LatencyRow
	AblationRows []AblationRow
)

// printTitle writes the title followed by the sequencer regime(s) the rows
// ran under, taken from the rows themselves: a table cannot be printed
// without saying which atomic broadcast its numbers were measured on.
func printTitle(w io.Writer, title string, intervals ...time.Duration) {
	var regimes []string
	for _, iv := range intervals {
		if r := Regime(iv); !slices.Contains(regimes, r) {
			regimes = append(regimes, r)
		}
	}
	fmt.Fprintf(w, "%s [sequencer: %s]\n", title, strings.Join(regimes, " + "))
}

// Print renders a Figure 3 sweep as the paper's series: throughput per
// protocol per cluster size (plus abort rates, reported in Figure 3(b)).
func (rows Fig3Rows) Print(w io.Writer, title string) {
	var ivs []time.Duration
	for _, r := range rows {
		ivs = append(ivs, r.ALC.OrderInterval, r.Cert.OrderInterval)
	}
	printTitle(w, title, ivs...)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "replicas\tALC commits/s\tCERT commits/s\tALC/CERT\tALC abort%\tCERT abort%")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.0f\t%.0f\t%.1fx\t%.1f%%\t%.1f%%\n",
			r.Replicas,
			r.ALC.CommitsPerSec, r.Cert.CommitsPerSec, r.SpeedupALC(),
			100*r.ALC.AbortRate, 100*r.Cert.AbortRate)
	}
	_ = tw.Flush()
}

// Print renders a Figure 4 sweep: speed-up and abort rates.
func (rows Fig4Rows) Print(w io.Writer, title string) {
	var ivs []time.Duration
	for _, r := range rows {
		ivs = append(ivs, r.ALC.OrderInterval, r.Cert.OrderInterval)
	}
	printTitle(w, title, ivs...)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "replicas\tALC time\tCERT time\tspeed-up\tALC abort%\tCERT abort%\tALC ≤1-abort%\trouted")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%v\t%v\t%.1fx\t%.1f%%\t%.1f%%\t%.1f%%\t%d/%d\n",
			r.Replicas,
			r.ALC.Elapsed.Round(1e6), r.Cert.Elapsed.Round(1e6), r.Speedup(),
			100*r.ALC.AbortRate, 100*r.Cert.AbortRate,
			100*r.ALC.AtMostOnce,
			r.ALC.Routed, r.ALC.Routed+r.ALC.Failed)
	}
	_ = tw.Flush()
}

// Print renders the §4.5 commit-latency decomposition.
func (rows LatencyRows) Print(w io.Writer, title string) {
	var ivs []time.Duration
	for _, r := range rows {
		ivs = append(ivs, r.OrderInterval)
	}
	printTitle(w, title, ivs...)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tsteps\tcommits\tmean\tp50\tp99")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%v\t%v\t%v\n",
			r.Scenario, r.Steps, r.Commits,
			r.Mean.Round(1e3), r.P50.Round(1e3), r.P99.Round(1e3))
	}
	_ = tw.Flush()
}

// Print renders an ablation sweep; the sequencer column is per row because
// one table may hold both regimes (ablation-shard's decision table).
func (rows AblationRows) Print(w io.Writer, title string) {
	var ivs []time.Duration
	for _, r := range rows {
		ivs = append(ivs, r.Result.OrderInterval)
	}
	printTitle(w, title, ivs...)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "variant\tsequencer\tcommits/s\tabort%\tmean commit\textra")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.1f%%\t%v\t%s\n",
			r.Variant, Regime(r.Result.OrderInterval), r.Result.CommitsPerSec, 100*r.Result.AbortRate,
			r.Result.MeanCommitLatency.Round(1e3), r.Extra)
	}
	_ = tw.Flush()
}

// BatchRows is ablation-batch's table: the ablation rows followed by each
// variant's merged batch-size distribution (how many write-set batches
// carried 1, 2, 3… transactions) — the shape behind the throughput numbers.
type BatchRows struct{ AblationRows }

func (rows BatchRows) Print(w io.Writer, title string) {
	rows.AblationRows.Print(w, title)
	for _, r := range rows.AblationRows {
		b := r.Result.Batch
		if b.Batches == 0 {
			continue
		}
		fmt.Fprintf(w, "%s: batch sizes", r.Variant)
		for _, p := range b.SizePairs {
			fmt.Fprintf(w, "  %d×%d", p[0], p[1])
		}
		fmt.Fprintln(w)
	}
}
