package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/lee"
	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/wire"
)

func testGCS() gcs.Config {
	return gcs.Config{
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      120 * time.Millisecond,
		FlushTimeout:      300 * time.Millisecond,
		RetransmitAfter:   60 * time.Millisecond,
		Tick:              5 * time.Millisecond,
	}
}

func newCluster(t *testing.T, n int, coreCfg core.Config) *Cluster {
	t.Helper()
	c, err := New(Config{
		N:    n,
		Core: coreCfg,
		Net:  memnet.Config{Latency: 500 * time.Microsecond},
		GCS:  testGCS(),
		Seed: map[string]stm.Value{"counter": 0, "a": 0, "b": 0},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func increment(box string) func(*stm.Txn) error {
	return func(tx *stm.Txn) error {
		v, err := tx.Read(box)
		if err != nil {
			return err
		}
		return tx.Write(box, v.(int)+1)
	}
}

func readBox(t *testing.T, r *core.Replica, box string) any {
	t.Helper()
	var out any
	err := r.AtomicRO(func(tx *stm.Txn) error {
		v, err := tx.Read(box)
		out = v
		return err
	})
	if err != nil {
		t.Fatalf("AtomicRO(%s): %v", box, err)
	}
	return out
}

// runCounterWorkload has every replica increment the same counter
// concurrently and checks global serializability.
func runCounterWorkload(t *testing.T, c *Cluster, perReplica int) {
	t.Helper()
	var wg sync.WaitGroup
	for _, r := range c.Replicas() {
		wg.Add(1)
		go func(r *core.Replica) {
			defer wg.Done()
			for i := 0; i < perReplica; i++ {
				if err := r.Atomic(increment("counter")); err != nil {
					t.Errorf("replica %d: %v", r.ID(), err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := perReplica * len(c.Replicas())
	for _, r := range c.Replicas() {
		if got := readBox(t, r, "counter"); got != want {
			t.Fatalf("replica %d: counter = %v, want %d", r.ID(), got, want)
		}
	}
}

// slowSeed is a box value whose encoding takes seedStall: a durable Seed,
// which writes the store's base record, outlasts SuspectAfter without
// loading the host.
type slowSeed struct{}

const seedStall = 400 * time.Millisecond

func init() {
	wire.Register(0x7A, slowSeed{},
		func(b []byte, _ any) ([]byte, error) {
			time.Sleep(seedStall)
			return b, nil
		},
		func(*wire.Reader) (any, error) { return slowSeed{}, nil })
}

// TestNewSeedsAfterEveryReplicaRuns: a Seed that outlasts SuspectAfter must
// not cost the initial view. New starts every replica before it seeds any;
// seeding replica 0 before replica 1 existed left replica 0 alone, and it
// ejected itself.
func TestNewSeedsAfterEveryReplicaRuns(t *testing.T) {
	const n = 3
	gcsCfg := testGCS()
	c, err := New(Config{
		N: n,
		Core: core.Config{Protocol: core.ProtocolALC,
			Durability: core.DurabilityConfig{Dir: t.TempDir(), Fsync: "off"}},
		Net:  memnet.Config{Latency: 500 * time.Microsecond},
		GCS:  gcsCfg,
		Seed: map[string]stm.Value{"slow": slowSeed{}},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	defer c.Close()
	for i, r := range c.Replicas() {
		if v := r.GCS().CurrentView(); v.ID != 1 || len(v.Members) != n || !r.InPrimary() {
			t.Errorf("replica %d after New: view %d with members %v (primary %t); want view 1 with all %d, each seeded in %v, SuspectAfter %v",
				i, v.ID, v.Members, r.InPrimary(), n, seedStall, gcsCfg.SuspectAfter)
		}
	}
}

// TestWaitConvergedWaitsForInFlightWriteSet: with one increment in flight on
// a slow network, every store still holds the old value, so equal stores
// alone would pass for convergence. WaitConverged must wait until the
// increment has landed everywhere.
func TestWaitConvergedWaitsForInFlightWriteSet(t *testing.T) {
	gcsCfg := testGCS()
	gcsCfg.SuspectAfter, gcsCfg.FlushTimeout, gcsCfg.RetransmitAfter = 5*time.Second, 5*time.Second, time.Second
	c, err := New(Config{
		N:    3,
		Core: core.Config{Protocol: core.ProtocolALC},
		Net:  memnet.Config{Latency: 40 * time.Millisecond},
		GCS:  gcsCfg,
		Seed: map[string]stm.Value{"x": 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r0 := c.Replica(0)
	done := make(chan error, 1)
	go func() { done <- r0.Atomic(increment("x")) }()
	for deadline := time.Now().Add(5 * time.Second); r0.Stats().Queues.GCS == (gcs.QueueStats{}); {
		if time.Now().After(deadline) {
			t.Fatal("the increment never reached the GCS")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, r := range c.Replicas() {
		if got := readBox(t, r, "x"); got != 1 {
			t.Errorf("replica %d: x = %v when WaitConverged returned, want 1", r.ID(), got)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("increment: %v", err)
	}
}

func TestALCCounterSerializable(t *testing.T) {
	c := newCluster(t, 3, core.Config{Protocol: core.ProtocolALC})
	runCounterWorkload(t, c, 20)
}

func TestALCWithAllOptimizations(t *testing.T) {
	c := newCluster(t, 3, core.Config{
		Protocol: core.ProtocolALC,
		Lease:    lease.Config{OptimisticFree: true},
	})
	runCounterWorkload(t, c, 20)
}

func TestCertCounterSerializable(t *testing.T) {
	c := newCluster(t, 3, core.Config{Protocol: core.ProtocolCert})
	runCounterWorkload(t, c, 20)
}

func TestCertWithBloomEncoding(t *testing.T) {
	c := newCluster(t, 3, core.Config{Protocol: core.ProtocolCert, BloomFPRate: 0.01})
	runCounterWorkload(t, c, 15)
}

func TestALCDisjointWritersKeepLeases(t *testing.T) {
	c, err := New(Config{
		N:    3,
		Core: core.Config{Protocol: core.ProtocolALC},
		Net:  memnet.Config{Latency: 500 * time.Microsecond},
		GCS:  testGCS(),
		Seed: map[string]stm.Value{"slot:0": 0, "slot:1": 0, "slot:2": 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const perReplica = 30
	var wg sync.WaitGroup
	for i, r := range c.Replicas() {
		wg.Add(1)
		go func(i int, r *core.Replica) {
			defer wg.Done()
			box := fmt.Sprintf("slot:%d", i)
			for j := 0; j < perReplica; j++ {
				if err := r.Atomic(increment(box)); err != nil {
					t.Errorf("replica %d: %v", i, err)
					return
				}
			}
		}(i, r)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	for i, r := range c.Replicas() {
		s := r.Stats()
		// Disjoint data: one lease request per replica, reused thereafter,
		// never migrated, zero aborts.
		if s.Lease.Requested != 1 {
			t.Errorf("replica %d issued %d lease requests, want 1", i, s.Lease.Requested)
		}
		if s.Lease.Reused != perReplica-1 {
			t.Errorf("replica %d reused %d leases, want %d", i, s.Lease.Reused, perReplica-1)
		}
		if s.Lease.Freed != 0 {
			t.Errorf("replica %d freed %d leases, want 0", i, s.Lease.Freed)
		}
		if s.Aborts != 0 {
			t.Errorf("replica %d aborted %d times, want 0", i, s.Aborts)
		}
	}
}

func TestALCAtMostOnceRemoteAbort(t *testing.T) {
	// Single application thread per replica, all conflicting on one box:
	// the lease shelters re-executions, so no transaction can suffer more
	// than two aborts (one early, one at lease establishment), and the
	// overall abort rate stays below 50%+epsilon — the paper's bound.
	c := newCluster(t, 3, core.Config{Protocol: core.ProtocolALC})
	runCounterWorkload(t, c, 25)

	for _, r := range c.Replicas() {
		s := r.Stats()
		if max := s.RetriesPerTxn.Max(); max > 2 {
			t.Errorf("replica %d: a transaction was aborted %d times; ALC bounds this by 2", r.ID(), max)
		}
	}
	total := c.TotalStats()
	if rate := total.AbortRate(); rate > 0.55 {
		t.Errorf("ALC abort rate = %.2f, want <= ~0.5", rate)
	}
}

func TestReadOnlyAlwaysAvailable(t *testing.T) {
	c := newCluster(t, 3, core.Config{Protocol: core.ProtocolALC})
	r := c.Replica(0)
	if err := r.Atomic(increment("counter")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got := readBox(t, r, "counter"); got != 1 {
			t.Fatalf("read-only sees %v, want 1", got)
		}
	}
	s := r.Stats()
	if s.ReadOnly != 10 {
		t.Fatalf("ReadOnly = %d, want 10", s.ReadOnly)
	}
}

func TestUpdateTxnWithNoWritesIsReadOnly(t *testing.T) {
	c := newCluster(t, 2, core.Config{Protocol: core.ProtocolALC})
	r := c.Replica(0)
	err := r.Atomic(func(tx *stm.Txn) error {
		_, err := tx.Read("counter")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.ReadOnly != 1 || s.Commits != 0 {
		t.Fatalf("stats = %+v, want the no-write txn counted read-only", s)
	}
}

func TestUserErrorAbortsWithoutRetry(t *testing.T) {
	c := newCluster(t, 2, core.Config{Protocol: core.ProtocolALC})
	boom := errors.New("boom")
	calls := 0
	err := c.Replica(0).Atomic(func(tx *stm.Txn) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Atomic = %v, want boom", err)
	}
	if calls != 1 {
		t.Fatalf("fn called %d times, want 1", calls)
	}
}

func TestCrashedReplicaClusterContinues(t *testing.T) {
	c := newCluster(t, 3, core.Config{Protocol: core.ProtocolALC})

	if err := c.Replica(2).Atomic(increment("counter")); err != nil {
		t.Fatal(err)
	}
	c.Crash(2)

	// Survivors keep committing after the view change.
	deadline := time.Now().Add(10 * time.Second)
	committed := false
	for time.Now().Before(deadline) {
		if err := c.Replica(0).Atomic(increment("counter")); err == nil {
			committed = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !committed {
		t.Fatal("survivors could not commit after crash")
	}
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestCrashLeaseHolderReleasesLease(t *testing.T) {
	c := newCluster(t, 3, core.Config{Protocol: core.ProtocolALC})

	// Replica 2 acquires the lease on "counter" by committing, then dies.
	if err := c.Replica(2).Atomic(increment("counter")); err != nil {
		t.Fatal(err)
	}
	c.Crash(2)

	// Replica 0 must eventually steal the lease (view change purges the
	// dead owner's requests).
	done := make(chan error, 1)
	go func() { done <- c.Replica(0).Atomic(increment("counter")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("commit after holder crash: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("lease never released after holder crash")
	}
}

func TestMinorityPartitionEjectsAndReadsStale(t *testing.T) {
	c := newCluster(t, 5, core.Config{Protocol: core.ProtocolALC})
	if err := c.Replica(0).Atomic(increment("counter")); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	c.Partition([]int{0}, []int{1, 2, 3, 4})

	// The isolated replica is ejected: update transactions fail...
	deadline := time.Now().Add(10 * time.Second)
	var err error
	for time.Now().Before(deadline) {
		err = c.Replica(0).Atomic(increment("counter"))
		if errors.Is(err, core.ErrEjected) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !errors.Is(err, core.ErrEjected) {
		t.Fatalf("update on minority side = %v, want ErrEjected", err)
	}
	// ...but read-only transactions still serve the (stale) snapshot.
	if got := readBox(t, c.Replica(0), "counter"); got != 1 {
		t.Fatalf("stale read = %v, want 1", got)
	}

	// The majority side keeps committing.
	if err := c.Replica(1).Atomic(increment("counter")); err != nil {
		t.Fatalf("majority commit: %v", err)
	}
	c.Heal()
}

func TestRestartRejoinsWithStateTransfer(t *testing.T) {
	c := newCluster(t, 3, core.Config{Protocol: core.ProtocolALC})

	for i := 0; i < 5; i++ {
		if err := c.Replica(0).Atomic(increment("counter")); err != nil {
			t.Fatal(err)
		}
	}
	c.Crash(2)

	// More commits while replica 2 is down.
	waitSurvivorCommit(t, c, 0)
	for i := 0; i < 5; i++ {
		if err := c.Replica(0).Atomic(increment("counter")); err != nil {
			t.Fatal(err)
		}
	}

	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Replica(2).WaitForView(3, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := readBox(t, c.Replica(2), "counter"); got.(int) < 10 {
		t.Fatalf("rejoined replica sees counter=%v, want >= 10", got)
	}

	// The rejoined replica commits again.
	if err := c.Replica(2).Atomic(increment("counter")); err != nil {
		t.Fatalf("commit after rejoin: %v", err)
	}
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestALCChangingDataSetAcrossRetries runs transactions whose data-set
// depends on what they read (§4.4), so a re-execution may need other conflict
// classes than the lease it holds. The replacement piggyback and the wildcard
// escalation are the only deadlock rule: every transaction must finish before
// the deadline, and no attempt may abort with lease.ErrDeadlock — nothing here
// installs state, the one event that can orphan an acquisition.
func TestALCChangingDataSetAcrossRetries(t *testing.T) {
	t.Run("parity-hop", func(t *testing.T) {
		// Hop between two boxes on the counter's parity.
		c := newCluster(t, 3, core.Config{Protocol: core.ProtocolALC})

		const perReplica = 15
		runUntil(t, 60*time.Second, c.Replicas(), 1, func(r *core.Replica, _ int) error {
			for i := 0; i < perReplica; i++ {
				err := r.Atomic(func(tx *stm.Txn) error {
					v, err := tx.Read("counter")
					if err != nil {
						return err
					}
					n := v.(int)
					target := "a"
					if n%2 == 1 {
						target = "b"
					}
					w, err := tx.Read(target)
					if err != nil {
						return err
					}
					if err := tx.Write(target, w.(int)+1); err != nil {
						return err
					}
					return tx.Write("counter", n+1)
				})
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err := c.WaitConverged(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		requireNoDeadlockAborts(t, c)

		total := perReplica * 3
		r := c.Replica(0)
		a := readBox(t, r, "a").(int)
		b := readBox(t, r, "b").(int)
		n := readBox(t, r, "counter").(int)
		if n != total || a+b != total {
			t.Fatalf("counter=%d a=%d b=%d, want counter=%d and a+b=%d", n, a, b, total, total)
		}
	})

	t.Run("lee", func(t *testing.T) {
		// Lee routing: a route's read-set is the expansion over the
		// snapshot, so it drifts whenever another route lands in its box.
		// Six replicas, four routing threads each and 64 conflict classes:
		// the shape where a wait-for-graph detector picked victims.
		const replicas, workers = 6, 4
		nets := 96
		if testing.Short() {
			nets = 48
		}
		board := lee.Generate(lee.GenConfig{W: 32, H: 32, Nets: nets, Seed: 11})
		// Figure 4's per-cell expansion cost: long routes run for
		// milliseconds, so drifting re-executions overlap.
		board.WorkPerRead = 100 * time.Microsecond
		gcsCfg := testGCS()
		// Generous failure detection: a suspicion under a loaded host would
		// bring a view change and state transfer, which is not the subject.
		gcsCfg.SuspectAfter, gcsCfg.FlushTimeout = 2*time.Second, 2*time.Second
		c, err := New(Config{
			N: replicas,
			Core: core.Config{
				Protocol: core.ProtocolALC,
				Lease:    lease.Config{Mapper: lease.Mapper{NumClasses: 64}, OptimisticFree: true},
			},
			Net:  memnet.Config{Latency: 500 * time.Microsecond},
			GCS:  gcsCfg,
			Seed: board.Seed(),
		})
		if err != nil {
			t.Fatalf("cluster.New: %v", err)
		}
		t.Cleanup(c.Close)

		var (
			mu     sync.Mutex
			routes = map[int]lee.RouteResult{}
		)
		runUntil(t, 120*time.Second, c.Replicas(), workers, func(r *core.Replica, w int) error {
			// Net j goes to replica j mod n, thread (j / n) mod workers.
			for j := int(r.ID()) + w*replicas; j < len(board.Nets); j += replicas * workers {
				net := board.Nets[j]
				var res lee.RouteResult
				route := board.RouteTxn(net, &res)
				err := r.Atomic(func(tx *stm.Txn) error { return route(tx) })
				switch {
				case err == nil:
					mu.Lock()
					routes[net.ID] = res
					mu.Unlock()
				case !errors.Is(err, lee.ErrUnroutable):
					return fmt.Errorf("net %d: %w", net.ID, err)
				}
			}
			return nil
		})
		if err := c.WaitConverged(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		requireNoDeadlockAborts(t, c)
		if len(routes) == 0 {
			t.Fatal("no net routed")
		}
		// Serializability, read off the board: every committed route still
		// owns each of its cells.
		err = c.Replica(0).AtomicRO(func(tx *stm.Txn) error {
			for id, res := range routes {
				for _, p := range res.Path {
					cell := lee.CellID(p.Z, p.Y, p.X)
					v, err := tx.Read(cell)
					if err != nil {
						return err
					}
					if v != id {
						return fmt.Errorf("net %d's cell %s holds %v", id, cell, v)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// runUntil runs body on workers goroutines per replica and fails the test on
// the first error, or when they have not all returned by the deadline (a
// lease deadlock hangs them).
func runUntil(t *testing.T, deadline time.Duration, reps []*core.Replica, workers int, body func(r *core.Replica, w int) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, len(reps)*workers)
	for _, r := range reps {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := body(r, w); err != nil {
					errs <- fmt.Errorf("replica %d worker %d: %w", r.ID(), w, err)
				}
			}()
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(deadline):
		for _, r := range reps {
			t.Logf("%s", r.LeaseManager().DumpState())
		}
		t.Fatalf("workers still running after %v", deadline)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
}

// requireNoDeadlockAborts fails the test if any replica counted an attempt
// aborted by an orphaned lease acquisition.
func requireNoDeadlockAborts(t *testing.T, c *Cluster) {
	t.Helper()
	for _, r := range c.Replicas() {
		if n := r.Stats().AbortCauses.Deadlock; n != 0 {
			t.Errorf("replica %d: %d attempts aborted by lease.ErrDeadlock", r.ID(), n)
		}
	}
}

// waitSurvivorCommit waits until replica i can commit (post-view-change).
func waitSurvivorCommit(t *testing.T, c *Cluster, i int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := c.Replica(i).Atomic(increment("counter")); err == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("replica never regained commit ability")
}
