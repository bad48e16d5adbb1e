package sim

import (
	"fmt"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/randseed"
)

// TestRoutedSimSeeds is the placed counterpart of TestSimSeeds: the same
// seed-expanded fault schedules, but every transaction runs at the
// rendezvous owner of its item set (Cluster.Preferred). The history checker
// must certify every such history — placement moving between replicas must
// not cost 1-copy serializability under crashes, partitions and message
// faults.
func TestRoutedSimSeeds(t *testing.T) {
	n := 16
	if testing.Short() {
		n = 6
	}
	root := randseed.Root()
	t.Logf("root seed %d (%d routed schedules); reproduce with %s=%d go test -run TestRoutedSimSeeds ./internal/sim/",
		root, n, randseed.EnvVar, root)

	gate := make(chan struct{}, 8)
	for i := 0; i < n; i++ {
		seed := randseed.Derive(root, fmt.Sprintf("routed-sim-schedule-%d", i))
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			gate <- struct{}{}
			defer func() { <-gate }()
			res := Run(Config{Seed: seed, Routed: true})
			if !res.OK() {
				recordFailingSeed(t, seed)
				t.Errorf("%s", res.Summary())
				t.Errorf("schedule: %s", res.Schedule)
			}
		})
	}
}

// TestRoutedOwnerCrashSchedule pins the scenario placement must survive:
// high-contention bank load placed by Cluster.Preferred while the schedule
// crashes a replica (if it owned the hot items, their placement moves to a
// survivor and back after the restart), then partitions another replica and
// heals. The run must not wedge, the invariant must hold, and the checker
// must certify the history.
func TestRoutedOwnerCrashSchedule(t *testing.T) {
	seed := randseed.Derive(randseed.Root(), "routed-owner-crash")
	sched := &Schedule{
		Seed:           seed,
		Replicas:       3,
		Workload:       WorkloadBank,
		HighContention: true,
		Events: []Event{
			{At: 50 * time.Millisecond, Kind: EventCrash, Victim: 0},
			{At: 110 * time.Millisecond, Kind: EventRestart, Victim: 0},
			{At: 150 * time.Millisecond, Kind: EventPartition, Victim: 1},
			{At: 190 * time.Millisecond, Kind: EventHeal},
		},
	}
	res := Run(Config{Seed: seed, Routed: true, Schedule: sched, Load: 260 * time.Millisecond})
	if !res.OK() {
		t.Fatalf("%s\nschedule: %s", res.Summary(), res.Schedule)
	}
	if res.Commits == 0 {
		t.Fatal("no commits under routed crash schedule")
	}
	t.Logf("%s", res.Summary())
}
