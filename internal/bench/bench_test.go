package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/bank"
	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/lee"
)

// The harness tests use tiny cells: they verify mechanics and directional
// shape, not absolute numbers (cmd/alc-bench runs the full-size sweeps).

func quickBank() BankConfig {
	return BankConfig{Duration: 300 * time.Millisecond, Warmup: 50 * time.Millisecond}
}

// TestRunBankNoConflictALCBeatsCert alternates short ALC and CERT windows
// and compares their medians: a scheduler hiccup on a shared host then skews
// one window, not the verdict. The five pairs measure as long as one 400 ms
// window per protocol did.
func TestRunBankNoConflictALCBeatsCert(t *testing.T) {
	const pairs = 5
	cfg := BankConfig{Mode: bank.NoConflict, Duration: 80 * time.Millisecond, Warmup: 20 * time.Millisecond}
	var alcRates, certRates []float64
	for i := 0; i < pairs; i++ {
		alc, err := RunBank(Params{Protocol: core.ProtocolALC, Replicas: 3}, cfg)
		if err != nil {
			t.Fatalf("ALC: %v", err)
		}
		cert, err := RunBank(Params{Protocol: core.ProtocolCert, Replicas: 3}, cfg)
		if err != nil {
			t.Fatalf("CERT: %v", err)
		}
		if alc.Commits == 0 || cert.Commits == 0 {
			t.Fatalf("window %d: no commits measured: ALC=%d CERT=%d", i, alc.Commits, cert.Commits)
		}
		if alc.AbortRate != 0 {
			t.Fatalf("window %d: ALC abort rate = %v on a no-conflict workload", i, alc.AbortRate)
		}
		// After warmup every ALC commit reuses the held lease.
		if alc.LeaseReuseRate < 0.9 {
			t.Errorf("window %d: ALC lease reuse rate %.2f, want ~1.0 in no-conflict mode", i, alc.LeaseReuseRate)
		}
		alcRates = append(alcRates, alc.CommitsPerSec)
		certRates = append(certRates, cert.CommitsPerSec)
	}
	// The headline direction: ALC outperforms CERT without conflicts.
	alc, cert := median(alcRates), median(certRates)
	if alc <= cert {
		t.Errorf("median ALC %.0f/s <= CERT %.0f/s on no-conflict bank (paper: 3-10x faster; ALC %.0f, CERT %.0f)",
			alc, cert, alcRates, certRates)
	}
	t.Logf("median ALC %.0f/s, CERT %.0f/s (ALC %.0f, CERT %.0f)", alc, cert, alcRates, certRates)
}

// median returns the middle value of an odd-length sample.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

func TestRunBankHighConflictShapes(t *testing.T) {
	alc, err := RunBank(Params{Protocol: core.ProtocolALC, Replicas: 3},
		BankConfig{Mode: bank.HighConflict, Duration: 400 * time.Millisecond, Warmup: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("ALC: %v", err)
	}
	if alc.Commits == 0 {
		t.Fatal("no ALC commits under high conflict")
	}
	// The ALC shelter: abort rate bounded (paper: never above 50%).
	if alc.AbortRate > 0.6 {
		t.Errorf("ALC high-conflict abort rate %.2f, paper bounds it near 0.5", alc.AbortRate)
	}
}

func TestRunFig3SmallSweep(t *testing.T) {
	rows, err := RunFig3(Params{}, []int{2, 3}, bank.NoConflict, quickBank())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	var buf bytes.Buffer
	rows.Print(&buf, "fig3a (smoke)")
	if buf.Len() == 0 {
		t.Fatal("empty table")
	}
	t.Logf("\n%s", buf.String())
}

func TestRunLeeSmallBoard(t *testing.T) {
	cfg := LeeConfig{Board: lee.GenConfig{W: 24, H: 24, Nets: 12, Seed: 5}}
	res, err := RunLee(Params{Protocol: core.ProtocolALC, Replicas: 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Routed == 0 {
		t.Fatal("no nets routed")
	}
	if res.Routed+res.Failed != 12 {
		t.Fatalf("routed %d + failed %d != 12 nets", res.Routed, res.Failed)
	}
	if res.MaxCellsRead == 0 || res.LongestPath == 0 {
		t.Fatalf("heterogeneity metrics empty: %+v", res)
	}
}

func TestRunLatencyShape(t *testing.T) {
	rows, err := RunLatency(Params{Replicas: 3}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d latency rows, want 5", len(rows))
	}
	byName := make(map[string]LatencyRow, len(rows))
	for _, r := range rows {
		if r.Commits == 0 || r.Mean == 0 {
			t.Fatalf("empty cell %q: %+v", r.Scenario, r)
		}
		byName[r.Scenario] = r
	}
	held := byName["ALC lease-held (1 URB)"]
	baseMiss := byName["ALC lease-miss, baseline §4"]
	// 2 steps must be measurably cheaper than 7 steps.
	if held.Mean >= baseMiss.Mean {
		t.Errorf("lease-held commit (%v) not faster than baseline lease miss (%v)",
			held.Mean, baseMiss.Mean)
	}
	var buf bytes.Buffer
	rows.Print(&buf, "latency (smoke)")
	t.Logf("\n%s", buf.String())
}

func TestRunAblationBloomSweep(t *testing.T) {
	rows, err := RunAblationBloom(Params{Replicas: 2}, []float64{0, 0.1}, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	exact, lossy := rows[0].Result, rows[1].Result
	if exact.Commits == 0 || lossy.Commits == 0 {
		t.Fatalf("empty cells: %+v / %+v", exact, lossy)
	}
	// Exact read-sets never produce spurious aborts on this workload.
	if exact.AbortRate != 0 {
		t.Errorf("exact encoding abort rate %.3f, want 0", exact.AbortRate)
	}
}

func TestRunAblationCCFalseSharing(t *testing.T) {
	rows, err := RunAblationCC(Params{Replicas: 3}, []int{1, 0}, quickBank())
	if err != nil {
		t.Fatal(err)
	}
	oneClass, perItem := rows[0].Result, rows[1].Result
	if perItem.Commits == 0 {
		t.Fatal("no commits with per-item classes")
	}
	// One global conflict class serializes everything: per-item granularity
	// must do strictly better on disjoint data.
	if perItem.CommitsPerSec <= oneClass.CommitsPerSec {
		t.Errorf("per-item classes (%.0f/s) not faster than single class (%.0f/s)",
			perItem.CommitsPerSec, oneClass.CommitsPerSec)
	}
}

// TestABCeilingReachesEveryCell runs the two cheapest experiments that
// ignored -ab-ceiling before Params.ABCeiling existed and checks, from the
// rows themselves, that every cell's cluster ran on the sequencer the base
// Params asked for.
func TestABCeilingReachesEveryCell(t *testing.T) {
	cell := BankConfig{Duration: 150 * time.Millisecond, Warmup: 50 * time.Millisecond}
	experiments := []struct {
		name string
		run  func(base Params) (AblationRows, error)
	}{
		{"ablation-opt", func(base Params) (AblationRows, error) { return RunAblationOpt(base, cell) }},
		{"ablation-cc", func(base Params) (AblationRows, error) { return RunAblationCC(base, []int{1, 0}, cell) }},
	}
	regimes := []struct {
		ceiling time.Duration
		want    time.Duration
		title   string
	}{
		{-1, 0, "[sequencer: native]"},
		{0, DefaultOrderInterval, "[sequencer: calibrated 1.2ms]"},
	}
	for _, e := range experiments {
		for _, rg := range regimes {
			rows, err := e.run(Params{Replicas: 2, ABCeiling: rg.ceiling})
			if err != nil {
				t.Fatalf("%s ceiling=%v: %v", e.name, rg.ceiling, err)
			}
			if len(rows) == 0 {
				t.Fatalf("%s ceiling=%v: no rows", e.name, rg.ceiling)
			}
			for _, r := range rows {
				if r.Result.OrderInterval != rg.want {
					t.Errorf("%s ceiling=%v: row %q ran under OrderInterval %v, want %v",
						e.name, rg.ceiling, r.Variant, r.Result.OrderInterval, rg.want)
				}
			}
			var buf bytes.Buffer
			rows.Print(&buf, e.name)
			if first, _, _ := strings.Cut(buf.String(), "\n"); !strings.HasSuffix(first, rg.title) {
				t.Errorf("%s ceiling=%v: title %q does not name the regime %q", e.name, rg.ceiling, first, rg.title)
			}
		}
	}
}
