package bench

import (
	"encoding/csv"
	"io"
	"strconv"
	"time"
)

// CSV export: every experiment's rows can be appended to one long-format
// file (experiment, series, x, metric, value), the shape plotting tools
// ingest directly.

// CSVWriter accumulates experiment results in long format.
type CSVWriter struct {
	w           *csv.Writer
	wroteHeader bool
}

// NewCSVWriter wraps an io.Writer.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{w: csv.NewWriter(w)}
}

func (c *CSVWriter) row(experiment, series, x, metric string, value float64) error {
	if !c.wroteHeader {
		if err := c.w.Write([]string{"experiment", "series", "x", "metric", "value"}); err != nil {
			return err
		}
		c.wroteHeader = true
	}
	return c.w.Write([]string{
		experiment, series, x, metric,
		strconv.FormatFloat(value, 'f', -1, 64),
	})
}

// Flush flushes the underlying csv writer.
func (c *CSVWriter) Flush() error {
	c.w.Flush()
	return c.w.Error()
}

// WriteCSV appends a Figure 3 sweep.
func (rows Fig3Rows) WriteCSV(c *CSVWriter, experiment string) error {
	for _, r := range rows {
		x := strconv.Itoa(r.Replicas)
		cells := []struct {
			series, metric string
			v              float64
		}{
			{"ALC", "commits_per_sec", r.ALC.CommitsPerSec},
			{"CERT", "commits_per_sec", r.Cert.CommitsPerSec},
			{"ALC", "abort_rate", r.ALC.AbortRate},
			{"CERT", "abort_rate", r.Cert.AbortRate},
			{"ALC", "mean_commit_us", float64(r.ALC.MeanCommitLatency.Microseconds())},
			{"CERT", "mean_commit_us", float64(r.Cert.MeanCommitLatency.Microseconds())},
		}
		for _, cell := range cells {
			if err := c.row(experiment, cell.series, x, cell.metric, cell.v); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSV appends a Figure 4 sweep.
func (rows Fig4Rows) WriteCSV(c *CSVWriter, experiment string) error {
	for _, r := range rows {
		x := strconv.Itoa(r.Replicas)
		cells := []struct {
			series, metric string
			v              float64
		}{
			{"ALC", "elapsed_ms", float64(r.ALC.Elapsed) / float64(time.Millisecond)},
			{"CERT", "elapsed_ms", float64(r.Cert.Elapsed) / float64(time.Millisecond)},
			{"ALC/CERT", "speedup", r.Speedup()},
			{"ALC", "abort_rate", r.ALC.AbortRate},
			{"CERT", "abort_rate", r.Cert.AbortRate},
			{"ALC", "at_most_once", r.ALC.AtMostOnce},
		}
		for _, cell := range cells {
			if err := c.row(experiment, cell.series, x, cell.metric, cell.v); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSV appends a latency decomposition.
func (rows LatencyRows) WriteCSV(c *CSVWriter, experiment string) error {
	for _, r := range rows {
		if err := c.row(experiment, r.Scenario, strconv.Itoa(r.Steps),
			"mean_us", float64(r.Mean.Microseconds())); err != nil {
			return err
		}
		if err := c.row(experiment, r.Scenario, strconv.Itoa(r.Steps),
			"p99_us", float64(r.P99.Microseconds())); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV appends an ablation sweep; x is the sequencer regime the row ran
// under, so a table holding both regimes stays unambiguous.
func (rows AblationRows) WriteCSV(c *CSVWriter, experiment string) error {
	for _, r := range rows {
		x := Regime(r.Result.OrderInterval)
		if err := c.row(experiment, r.Variant, x, "commits_per_sec", r.Result.CommitsPerSec); err != nil {
			return err
		}
		if err := c.row(experiment, r.Variant, x, "abort_rate", r.Result.AbortRate); err != nil {
			return err
		}
	}
	return nil
}
