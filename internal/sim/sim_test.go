package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/history"
	"github.com/alcstm/alc/internal/randseed"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/transport"
)

// TestSimSeeds runs the harness over a batch of distinct fault-schedule
// seeds derived from the suite root seed and requires the checker to certify
// every history. On failure it prints the exact seed and the replay
// incantations; with ALC_SIM_ARTIFACTS set, failing seeds are also appended
// to a file in that directory (the nightly CI uploads it).
func TestSimSeeds(t *testing.T) {
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
	root := randseed.Root()
	t.Logf("root seed %d (%d schedules); reproduce the batch with %s=%d go test -run TestSimSeeds ./internal/sim/",
		root, n, randseed.EnvVar, root)

	// Subtests run in parallel for wall-clock (the load phase is mostly
	// sleeping on simulated latency), but each simulation is a whole cluster
	// of timer-driven goroutines: unbounded parallelism on a small machine
	// starves heartbeats and fails runs with spurious suspicions. Cap the
	// in-flight simulations instead.
	gate := make(chan struct{}, 8)
	for i := 0; i < n; i++ {
		seed := randseed.Derive(root, fmt.Sprintf("sim-schedule-%d", i))
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			gate <- struct{}{}
			defer func() { <-gate }()
			res := Run(Config{Seed: seed})
			if !res.OK() {
				recordFailingSeed(t, seed)
				t.Errorf("%s", res.Summary())
				t.Errorf("schedule: %s", res.Schedule)
				t.Errorf("replay: go run ./cmd/alc-sim -seed=%d -v", seed)
			}
		})
	}
}

// recordFailingSeed appends the seed to $ALC_SIM_ARTIFACTS/failing-seeds.txt.
func recordFailingSeed(t *testing.T, seed int64) {
	dir := os.Getenv("ALC_SIM_ARTIFACTS")
	if dir == "" {
		return
	}
	path := filepath.Join(dir, "failing-seeds.txt")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Logf("cannot record failing seed: %v", err)
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "%d\n", seed)
}

// Replay safety: the same seed must expand to the identical schedule, and
// distinct seeds must not collapse onto one schedule.
func TestScheduleDeterministic(t *testing.T) {
	for seed := int64(1); seed < 50; seed++ {
		a := Generate(seed, 3, 200*time.Millisecond)
		b := Generate(seed, 3, 200*time.Millisecond)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedules differ:\n%s\n%s", seed, a, b)
		}
	}
	distinct := make(map[string]bool)
	for seed := int64(1); seed < 50; seed++ {
		distinct[Generate(seed, 3, 200*time.Millisecond).String()] = true
	}
	if len(distinct) < 25 {
		t.Fatalf("only %d distinct schedules from 49 seeds", len(distinct))
	}
}

// Schedules must never harm the witness replica and never take the cluster
// below a majority.
func TestScheduleFeasible(t *testing.T) {
	for seed := int64(1); seed < 500; seed++ {
		s := Generate(seed, 3, 200*time.Millisecond)
		crashed, partitioned := -1, false
		for _, e := range s.Events {
			switch e.Kind {
			case EventCrash:
				if e.Victim == s.Witness() {
					t.Fatalf("seed %d: schedule crashes the witness: %s", seed, s)
				}
				if crashed >= 0 || partitioned {
					t.Fatalf("seed %d: infeasible crash: %s", seed, s)
				}
				crashed = e.Victim
			case EventRestart:
				if e.Victim != crashed {
					t.Fatalf("seed %d: restart of a running replica: %s", seed, s)
				}
				crashed = -1
			case EventPartition:
				if e.Victim == s.Witness() {
					t.Fatalf("seed %d: schedule isolates the witness: %s", seed, s)
				}
				if partitioned || crashed >= 0 {
					t.Fatalf("seed %d: infeasible partition: %s", seed, s)
				}
				partitioned = true
			case EventHeal:
				if !partitioned {
					t.Fatalf("seed %d: heal without partition: %s", seed, s)
				}
				partitioned = false
			}
		}
	}
}

// End-to-end checker wiring: take a genuinely recorded history and inject a
// fabricated lost update — a transaction claiming to have read a version the
// installed order proves was already overwritten by a transaction it also
// overwrote; or two transactions that both found a box absent and both
// created it. The checker must refuse each (and must accept the untampered
// history, or the test would prove nothing).
func TestCheckerDetectsTamperedHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulation")
	}
	res := Run(Config{Seed: 12345})
	if res.Err != nil {
		t.Fatalf("harness: %v", res.Err)
	}
	if !res.Verdict.OK() {
		t.Fatalf("baseline history rejected (the tamper check would prove nothing): %s", res.Verdict)
	}
	captured := res.checkerInput

	// Locate a box with at least two versions in the merged order.
	var (
		box   string
		order []stm.TxnID
	)
	for _, id := range captured.FullHistory {
		for b, o := range captured.Orders[id] {
			if len(o) >= 2 {
				box, order = b, o
				break
			}
		}
		if box != "" {
			break
		}
	}
	// Two creators of one fresh box, both of which read it as absent (the
	// initial version): the first increment of a new key, lost.
	first, second := stm.TxnID{Replica: 98, Seq: 1}, stm.TxnID{Replica: 98, Seq: 2}
	absent := captured
	absent.Commits = append(append([]core.TxnReport(nil), captured.Commits...),
		core.TxnReport{ID: first, RS: stm.ReadSet{{Box: "fresh"}}, WS: stm.WriteSet{{Box: "fresh", Value: 1}}},
		core.TxnReport{ID: second, RS: stm.ReadSet{{Box: "fresh"}}, WS: stm.WriteSet{{Box: "fresh", Value: 1}}})
	absent.Orders = make(map[transport.ID]map[string][]stm.TxnID, len(captured.Orders))
	for id, orders := range captured.Orders {
		absent.Orders[id] = map[string][]stm.TxnID{"fresh": {first, second}}
		for b, o := range orders {
			absent.Orders[id][b] = o
		}
	}
	if v := history.Check(absent); v.OK() {
		t.Fatal("history with two creators that both read the box as absent accepted by the checker")
	}

	if box == "" {
		t.Skip("no box with two versions; schedule produced no contention")
	}
	ghost := stm.TxnID{Replica: 99, Seq: 1}
	forged := core.TxnReport{
		ID: ghost,
		RS: stm.ReadSet{{Box: box, Writer: order[len(order)-2]}},
		WS: stm.WriteSet{{Box: box, Value: 0}},
	}
	captured.Commits = append(captured.Commits, forged)
	for id := range captured.Orders {
		if o, ok := captured.Orders[id][box]; ok {
			captured.Orders[id][box] = append(append([]stm.TxnID{}, o...), ghost)
		}
	}
	if v := history.Check(captured); v.OK() {
		t.Fatal("tampered history accepted by the checker")
	}
}
