package bench

import (
	"testing"
	"time"
)

// TestRunAblationRoutingShape runs a tiny ablation-routing cell and checks
// mechanics plus the headline direction: rendezvous placement reuses leases
// more than oblivious random placement. (cmd/alc-bench runs the full-size
// cell; EXPERIMENTS.md records the margin.)
func TestRunAblationRoutingShape(t *testing.T) {
	rows, err := RunAblationRouting(Params{Replicas: 3}, 400*time.Millisecond)
	if err != nil {
		t.Fatalf("ablation-routing: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	random, rendezvous := rows[0].Result, rows[1].Result
	if random.Commits == 0 || rendezvous.Commits == 0 {
		t.Fatalf("no commits: random=%d rendezvous=%d", random.Commits, rendezvous.Commits)
	}
	// Lease reuse is the structural signal (rendezvous holds hot leases
	// resident, random placement bounces them): it must clearly dominate
	// regardless of host load. Throughput direction at this tiny duration
	// is noisy when the whole suite shares a core, so the test only rules
	// out a regression; the margin is the 2s ablation-routing cell's job.
	if rendezvous.LeaseReuseRate <= 2*random.LeaseReuseRate {
		t.Errorf("rendezvous reuse %.2f not clearly above random reuse %.2f; placement buys nothing",
			rendezvous.LeaseReuseRate, random.LeaseReuseRate)
	}
	if rendezvous.CommitsPerSec < 0.9*random.CommitsPerSec {
		t.Errorf("rendezvous %.0f/s well below random %.0f/s on the zipfian bank",
			rendezvous.CommitsPerSec, random.CommitsPerSec)
	}
}
