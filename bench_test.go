// Package-level benchmarks: one testing.B entry per table/figure of the
// paper's evaluation (§5), driving the same harness as cmd/alc-bench but
// sized for `go test -bench`. Each benchmark reports the figure's headline
// metrics as custom benchmark outputs (commits/s, abort %, speed-up), so a
// single `go test -bench=. -benchmem` regenerates the full evaluation in
// miniature.
package alc_test

import (
	"testing"
	"time"

	"github.com/alcstm/alc/internal/bank"
	"github.com/alcstm/alc/internal/bench"
	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/lee"
	"github.com/alcstm/alc/internal/stm"
)

// benchReplicas is the cluster size used by the single-cell benchmarks; the
// full sweeps live in cmd/alc-bench.
const benchReplicas = 4

func runBankCell(b *testing.B, p bench.Params, mode bank.Mode) {
	b.Helper()
	cfg := bench.BankConfig{
		Mode:     mode,
		Duration: time.Duration(b.N) * 2 * time.Millisecond,
		Warmup:   150 * time.Millisecond,
	}
	if cfg.Duration < 300*time.Millisecond {
		cfg.Duration = 300 * time.Millisecond
	}
	res, err := bench.RunBank(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.CommitsPerSec, "commits/s")
	b.ReportMetric(100*res.AbortRate, "abort%")
	b.ReportMetric(float64(res.MeanCommitLatency.Microseconds()), "commit-µs")
}

// BenchmarkFig3aBankNoConflictALC / ...Cert regenerate one cell of
// Figure 3(a): the Bank benchmark with disjoint per-replica fragments.
func BenchmarkFig3aBankNoConflictALC(b *testing.B) {
	runBankCell(b, bench.Params{
		Protocol: core.ProtocolALC, Replicas: benchReplicas,
	}, bank.NoConflict)
}

func BenchmarkFig3aBankNoConflictCert(b *testing.B) {
	runBankCell(b, bench.Params{
		Protocol: core.ProtocolCert, Replicas: benchReplicas,
	}, bank.NoConflict)
}

// BenchmarkFig3bBankHighConflictALC / ...Cert regenerate one cell of
// Figure 3(b): every replica updates the same accounts.
func BenchmarkFig3bBankHighConflictALC(b *testing.B) {
	runBankCell(b, bench.Params{
		Protocol: core.ProtocolALC, Replicas: benchReplicas,
	}, bank.HighConflict)
}

func BenchmarkFig3bBankHighConflictCert(b *testing.B) {
	runBankCell(b, bench.Params{
		Protocol: core.ProtocolCert, Replicas: benchReplicas,
	}, bank.HighConflict)
}

// BenchmarkFig4LeeSpeedup regenerates one cluster size of Figure 4: both
// protocols route the same board; the reported metric is the speed-up
// time(CERT)/time(ALC) plus both abort rates.
func BenchmarkFig4LeeSpeedup(b *testing.B) {
	cfg := bench.LeeConfig{
		Board:       lee.GenConfig{W: 48, H: 48, Nets: 64, Seed: 42},
		WorkPerRead: 10 * time.Microsecond,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alcRes, err := bench.RunLee(bench.Params{
			Protocol: core.ProtocolALC, Replicas: benchReplicas,
			DeadlockDetection: true,
		}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		certRes, err := bench.RunLee(bench.Params{
			Protocol: core.ProtocolCert, Replicas: benchReplicas,
		}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(certRes.Elapsed)/float64(alcRes.Elapsed), "speedup")
		b.ReportMetric(100*alcRes.AbortRate, "alc-abort%")
		b.ReportMetric(100*certRes.AbortRate, "cert-abort%")
		b.ReportMetric(100*alcRes.AtMostOnce, "alc-≤1-abort%")
	}
}

// BenchmarkCommitLatencyALCLeaseHeld measures the paper's headline fast
// path: a commit under a retained lease (one URB, two communication steps).
func BenchmarkCommitLatencyALCLeaseHeld(b *testing.B) {
	benchCommitLatency(b, bench.Params{Protocol: core.ProtocolALC, Replicas: 3})
}

// BenchmarkCommitLatencyCert measures the baseline: one atomic broadcast per
// commit.
func BenchmarkCommitLatencyCert(b *testing.B) {
	benchCommitLatency(b, bench.Params{Protocol: core.ProtocolCert, Replicas: 3})
}

func benchCommitLatency(b *testing.B, p bench.Params) {
	b.Helper()
	c, err := bench.NewCluster(p, map[string]stm.Value{"x": 0})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	// Non-coordinator replica: the sequencer-adjacent fast path would bias
	// CERT (see internal/bench/latency.go).
	r := c.Replicas()[p.Replicas-1]
	inc := func(tx *stm.Txn) error {
		v, err := tx.Read("x")
		if err != nil {
			return err
		}
		return tx.Write("x", v.(int)+1)
	}
	for i := 0; i < 5; i++ { // warmup: lease establishment
		if err := r.Atomic(inc); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Atomic(inc); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := r.Stats()
	b.ReportMetric(float64(s.CommitLatency.Quantile(0.5).Microseconds()), "p50-µs")
}

// BenchmarkCommitThroughputBatched measures the group-commit pipeline in its
// target regime: many concurrent committers per replica on disjoint conflict
// classes (the sharded bank), where the coalescer amortizes one URB message
// and its receiver-side admission cost over many transactions. Reports
// commits/s and the mean batch size achieved.
func BenchmarkCommitThroughputBatched(b *testing.B) {
	const committersPerReplica = 32
	cfg := bench.BankConfig{
		Sharded:  true,
		Threads:  committersPerReplica,
		Duration: time.Duration(b.N) * 2 * time.Millisecond,
		Warmup:   150 * time.Millisecond,
	}
	if cfg.Duration < 500*time.Millisecond {
		cfg.Duration = 500 * time.Millisecond
	}
	res, err := bench.RunBank(bench.Params{
		Protocol: core.ProtocolALC, Replicas: benchReplicas,
	}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.CommitsPerSec, "commits/s")
	b.ReportMetric(float64(res.MeanCommitLatency.Microseconds()), "commit-µs")
	if res.Batch.Batches > 0 {
		b.ReportMetric(res.Batch.MeanSize, "txns/batch")
	}
}

// BenchmarkAblationBloomEncoding regenerates one point of the D2STM Bloom
// trade-off table: encoding size vs spurious aborts.
func BenchmarkAblationBloomEncoding(b *testing.B) {
	rows, err := bench.RunAblationBloom(bench.Params{Replicas: 2}, []float64{0.05},
		time.Duration(max64(int64(b.N)*2_000_000, int64(300*time.Millisecond))))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(100*rows[0].Result.AbortRate, "spurious-abort%")
}

func max64(a, c int64) time.Duration {
	if a > c {
		return time.Duration(a)
	}
	return time.Duration(c)
}
