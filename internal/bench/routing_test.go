package bench

import (
	"strings"
	"testing"
	"time"
)

// TestRunAblationRoutingShape runs a tiny ablation-routing cell and checks
// mechanics plus the headline direction: the affinity variant reuses leases
// more than oblivious random placement and actually migrates transactions.
// (cmd/alc-bench runs the full-size cell; EXPERIMENTS.md "Historical
// records", PR 6 row, is the recorded margin.)
func TestRunAblationRoutingShape(t *testing.T) {
	rows, err := RunAblationRouting(Params{Replicas: 3}, 400*time.Millisecond)
	if err != nil {
		t.Fatalf("ablation-routing: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	random, affinity := rows[0].Result, rows[2].Result
	if random.Commits == 0 || affinity.Commits == 0 {
		t.Fatalf("no commits: random=%d affinity=%d", random.Commits, affinity.Commits)
	}
	// Lease reuse is the structural signal (affinity holds hot leases
	// resident, random placement bounces them): it must clearly dominate
	// regardless of host load. Throughput direction at this tiny duration
	// is noisy when the whole suite shares a core, so the test only rules
	// out a regression; the 2x-margin direction claim is the 2s
	// ablation-routing cell's job (EXPERIMENTS.md "Historical records", PR 6).
	if affinity.LeaseReuseRate <= 2*random.LeaseReuseRate {
		t.Errorf("affinity reuse %.2f not clearly above random reuse %.2f; routing buys nothing",
			affinity.LeaseReuseRate, random.LeaseReuseRate)
	}
	if affinity.CommitsPerSec < 0.9*random.CommitsPerSec {
		t.Errorf("affinity %.0f/s well below random %.0f/s on the zipfian bank",
			affinity.CommitsPerSec, random.CommitsPerSec)
	}
	if !strings.Contains(rows[2].Extra, "decisions[") {
		t.Errorf("affinity Extra lacks router decision mix: %q", rows[2].Extra)
	}
	if strings.Contains(rows[2].Extra, "migrated=") == false {
		t.Errorf("affinity Extra records no migrations: %q", rows[2].Extra)
	}
}
