package sim

import (
	"fmt"
	"testing"

	"github.com/alcstm/alc/internal/randseed"
)

// TestSimHighParallelism drives the commit path with 16 committer threads
// per replica — eight times the default — over both conflict regimes:
// schedules with HighContention=false use the sharded bank (disjoint
// conflict classes, so commits of different threads never wait for each
// other in the in-flight table and queue only on the store's commit lock),
// and schedules with HighContention=true overlap constantly (the validation
// path must keep refusing stale read-sets). The
// history checker certifies every run: no lost commits, identical
// serialization of conflicting pairs at every replica, under fault injection.
func TestSimHighParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("long: full simulations at 16 threads/replica")
	}
	root := randseed.Root()
	// Select seeds by inspecting their schedules so both contention regimes
	// are always covered, whatever the root seed: two disjoint-class and two
	// overlapping-class schedules.
	const perRegime = 2
	var seeds []int64
	want := map[bool]int{false: perRegime, true: perRegime}
	for i := 0; len(seeds) < 2*perRegime && i < 256; i++ {
		seed := randseed.Derive(root, fmt.Sprintf("sim-highpar-%d", i))
		s := Generate(seed, 3, 0)
		if want[s.HighContention] > 0 {
			want[s.HighContention]--
			seeds = append(seeds, seed)
		}
	}
	if len(seeds) < 2*perRegime {
		t.Fatalf("could not find %d schedules per contention regime in 256 derivations", perRegime)
	}
	t.Logf("root seed %d; reproduce with %s=%d go test -run TestSimHighParallelism ./internal/sim/",
		root, randseed.EnvVar, root)

	// 16 threads x 3 replicas is a heavy cluster; run the simulations
	// sequentially so heartbeats are not starved (see TestSimSeeds's gate).
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res := Run(Config{Seed: seed, Threads: 16})
			if !res.OK() {
				recordFailingSeed(t, seed)
				t.Errorf("%s", res.Summary())
				t.Errorf("schedule: %s", res.Schedule)
				t.Errorf("replay: go run ./cmd/alc-sim -seed=%d -threads=16 -v", seed)
			}
			if res.Commits == 0 {
				t.Error("no commits at 16 threads/replica: load phase produced nothing")
			}
		})
	}
}
