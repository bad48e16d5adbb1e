package sim

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/randseed"
)

// runSizedMatrix runs n seed-derived schedules on a cluster of the given size
// in parallel subtests, at most gate simulations in flight (see
// TestSimSeeds). The sim CLI replays three-replica clusters only, so a
// failing seed is replayed through its subtest with the root seed pinned.
func runSizedMatrix(t *testing.T, replicas, n, gate int, label string) {
	root := randseed.Root()
	t.Logf("root seed %d (%d schedules, %d replicas); reproduce with %s=%d go test -run %s ./internal/sim/",
		root, n, replicas, randseed.EnvVar, root, t.Name())
	slots := make(chan struct{}, gate)
	for i := 0; i < n; i++ {
		seed := randseed.Derive(root, fmt.Sprintf("%s-%d", label, i))
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			slots <- struct{}{}
			defer func() { <-slots }()
			res := Run(Config{Seed: seed, Replicas: replicas})
			if !res.OK() {
				recordFailingSeed(t, seed)
				t.Errorf("%s", res.Summary())
				t.Errorf("schedule: %s", res.Schedule)
				t.Errorf("replay: %s=%d go test -run '%s$' ./internal/sim/", randseed.EnvVar, root, t.Name())
			}
		})
	}
}

// TestSimSeedsFiveReplicas is TestSimSeeds on five replicas. The other seed
// matrices run three, where a URB quorum is two and only the sender's
// designated receiver acks at once; at five the quorum is three, so every
// receiver acks every peer at once and a delivery waits on holders beyond
// the designated one. A view change also flushes among up to four survivors,
// and a rejoining replica picks its state-transfer donor among several. The
// checker certifies every history.
func TestSimSeedsFiveReplicas(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 20
	}
	if s := os.Getenv("ALC_SIM_SEEDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("bad ALC_SIM_SEEDS=%q", s)
		}
		n = v
	}
	// A five-replica run has more timer goroutines than a three-replica
	// one, so fewer run at once than in TestSimSeeds.
	runSizedMatrix(t, 5, n, 5, "sim-5replica-schedule")
}

// TestSimSeedsFourReplicas spot-checks an even cluster size: of four
// members a majority is three, so a one-replica partition leaves the primary
// side with no spare member, and the quorum of three takes the all-acks path
// as at five.
func TestSimSeedsFourReplicas(t *testing.T) {
	n := 8
	if testing.Short() {
		n = 3
	}
	runSizedMatrix(t, 4, n, 4, "sim-4replica-schedule")
}

// TestFaultBattery pins one deliberately hostile timeline — message drops
// and duplicates, a crash with recovery, a partition with heal — over the
// sorted-set workload on four replicas. Treap structural updates touch many
// boxes per transaction, so a write-set applied only in part at some replica
// fails the checker's committed-write-lost check.
func TestFaultBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulation")
	}
	const ms = time.Millisecond
	sched := &Schedule{
		Seed:           424242,
		Replicas:       4,
		Workload:       WorkloadSortedSet,
		HighContention: true,
		Faults:         memnet.Faults{Seed: 424242, Drop: 0.02, Duplicate: 0.03},
		Events: []Event{
			{At: 40 * ms, Kind: EventCrash, Victim: 0},
			{At: 100 * ms, Kind: EventRestart, Victim: 0},
			{At: 150 * ms, Kind: EventPartition, Victim: 1},
			{At: 200 * ms, Kind: EventHeal},
		},
	}
	res := Run(Config{Schedule: sched, Load: 280 * ms})
	if !res.OK() {
		t.Fatalf("%s\nschedule: %s", res.Summary(), res.Schedule)
	}
	if res.Commits == 0 {
		t.Fatal("fault battery committed nothing")
	}
}

// TestDurableRestartSchedule pins a durable crash-restart under the
// high-contention bank: the victim recovers from its own WAL and snapshot
// and rejoins by delta or full transfer, and the checker certifies the
// history across the restart.
func TestDurableRestartSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulation")
	}
	const ms = time.Millisecond
	sched := &Schedule{
		Seed:           777001,
		Replicas:       3,
		Workload:       WorkloadBank,
		HighContention: true,
		Events: []Event{
			{At: 60 * ms, Kind: EventCrash, Victim: 0},
			{At: 140 * ms, Kind: EventRestart, Victim: 0},
		},
	}
	res := Run(Config{Schedule: sched, Durable: true, Load: 250 * ms})
	if !res.OK() {
		t.Fatalf("%s\nschedule: %s", res.Summary(), res.Schedule)
	}
	if res.Commits == 0 {
		t.Fatal("durable restart run committed nothing")
	}
}
