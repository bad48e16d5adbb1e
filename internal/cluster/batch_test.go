package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/stm"
)

// TestBatchSharedLeaseNoLostUpdate targets the group-commit coalescer's most
// delicate invariant: two local transactions admitted under the SAME retained
// lease but landing in different batches must serialize their
// validate-then-apply windows. If the second transaction validated against
// the pre-apply snapshot while the first's write-set was still in flight in a
// batch, one increment would be silently lost. The in-flight table must
// force the second committer to wait for the first batch's self-delivery.
func TestBatchSharedLeaseNoLostUpdate(t *testing.T) {
	c := newCluster(t, 3, core.Config{
		Protocol: core.ProtocolALC,
		// Tiny caps force batch boundaries constantly.
		Batch: core.BatchConfig{MaxTxns: 2, MaxDelay: 100 * time.Microsecond},
	})

	const (
		writers = 4
		each    = 150
	)
	r := c.Replica(0) // all writers on one replica: they share the lease
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := r.Atomic(increment("counter")); err != nil {
					t.Errorf("increment: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := writers * each
	for _, rep := range c.Replicas() {
		if got := readBox(t, rep, "counter"); got != want {
			t.Fatalf("replica %d: counter = %v, want %d (lost update across batch boundary)",
				rep.ID(), got, want)
		}
	}
}

// TestBatchingCoalescesDisjointCommitters drives disjoint-class committers
// concurrently on ONE replica, with no faults, and checks (a) that every
// acknowledged commit is applied on every replica and (b) that
// multi-transaction batches actually formed and are visible in the replica's
// stats.
//
// (a) is the directed regression for the lost acknowledged commit: disjoint
// committers do not serialize on the in-flight table, so unless TxnID
// allocation and coalescer enqueue are atomic per replica, two of them can
// enter the URB stream out of Seq order and the receivers' per-writer
// frontier filter silently drops the lower one (a counter ends at each-1).
// The committer and commit counts are sized so that a driver without that
// atomicity loses a commit in every run at GOMAXPROCS=2 (10 of 10 on commit
// 187822f, whose commit driver lacked it).
func TestBatchingCoalescesDisjointCommitters(t *testing.T) {
	const (
		committers = 64
		each       = 200
	)
	boxes := make([]string, committers)
	seed := make(map[string]stm.Value, committers)
	for i := range boxes {
		boxes[i] = fmt.Sprintf("c%d", i)
		seed[boxes[i]] = 0
	}
	// No fault is injected, so failure detection only has to stay out of the
	// way: 64 committers on two cores (or under the race detector) can starve
	// heartbeats past testGCS's 120ms suspicion timeout.
	gcsCfg := testGCS()
	gcsCfg.SuspectAfter = 10 * time.Second
	c, err := New(Config{
		N:    3,
		Core: core.Config{Protocol: core.ProtocolALC},
		Net:  memnet.Config{Latency: 500 * time.Microsecond},
		GCS:  gcsCfg,
		Seed: seed,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	defer c.Close()

	r := c.Replica(0)
	var wg sync.WaitGroup
	for _, box := range boxes {
		wg.Add(1)
		go func(box string) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := r.Atomic(increment(box)); err != nil {
					t.Errorf("increment %s: %v", box, err)
					return
				}
			}
		}(box)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, rep := range c.Replicas() {
		for _, box := range boxes {
			if got := readBox(t, rep, box); got != each {
				t.Errorf("replica %d: %s = %v, want %d (acknowledged commit lost)", rep.ID(), box, got, each)
			}
		}
		// The same bug as a gauge: the frontier filter dropping an
		// entry it never absorbed (alc_wal_filtered_total{seen="never"}).
		if n := rep.Stats().WAL.FilteredNeverSeen; n != 0 {
			t.Errorf("replica %d: frontier filter dropped %d never-seen entries", rep.ID(), n)
		}
	}

	s := r.Stats()
	if s.Commits != committers*each {
		t.Fatalf("commits = %d, want %d", s.Commits, committers*each)
	}
	// A commit either rode the coalescer or, on a lease miss, its lease
	// request (§4.5(c)): every committer's first increment misses.
	for _, rep := range c.Replicas() {
		rs := rep.Stats()
		if rs.Batch.BatchedTxns+rs.Piggybacked != rs.Commits {
			t.Errorf("replica %d: batched txns (%d) + piggybacked (%d) != commits (%d)",
				rep.ID(), rs.Batch.BatchedTxns, rs.Piggybacked, rs.Commits)
		}
	}
	if s.Piggybacked == 0 {
		t.Fatal("no commit took the lease-miss path")
	}
	if s.Batch.BatchedTxns == s.Batch.Batches {
		t.Fatal("every batch carried exactly one transaction: coalescing never happened")
	}
	flushes := s.Batch.FlushIdle + s.Batch.FlushSize + s.Batch.FlushBytes +
		s.Batch.FlushWindow + s.Batch.FlushDrain
	if flushes != s.Batch.Batches {
		t.Fatalf("flush reasons sum to %d, want %d", flushes, s.Batch.Batches)
	}
	if s.Batch.ApplyTasks == 0 {
		t.Fatal("apply scheduler processed no tasks")
	}
}

// TestPartitionMidBatchFailsWaiters ejects a replica while its commits are
// parked in the batching pipeline (enqueued, broadcast, or awaiting
// self-delivery) and asserts every waiter fails with ErrEjected rather than
// hanging, and that none of the failed increments survives anywhere.
func TestPartitionMidBatchFailsWaiters(t *testing.T) {
	c := newCluster(t, 5, core.Config{Protocol: core.ProtocolALC})

	// Commits from the soon-to-be-minority replica, issued right around the
	// partition: the in-flight ones can never stabilize and must be failed by
	// the ejection.
	minoritySucceeded := 0
	sawEjected := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := c.Replica(0)
		for {
			err := r.Atomic(increment("counter"))
			switch {
			case err == nil:
				minoritySucceeded++
			case errors.Is(err, core.ErrEjected):
				sawEjected = true
				return
			default:
				t.Errorf("minority commit: unexpected error %v", err)
				return
			}
		}
	}()

	time.Sleep(20 * time.Millisecond)
	c.Partition([]int{0}, []int{1, 2, 3, 4})

	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("commit on the partitioned replica neither succeeded nor failed: waiter leaked mid-batch")
	}
	if t.Failed() {
		t.FailNow()
	}
	if !sawEjected {
		t.Fatal("partitioned replica never returned ErrEjected")
	}

	// The majority keeps working through the partition.
	majoritySucceeded := 0
	waitSurvivorCommit(t, c, 1)
	majoritySucceeded++
	for i := 0; i < 20; i++ {
		if err := c.Replica(1).Atomic(increment("counter")); err != nil {
			t.Fatalf("majority commit: %v", err)
		}
		majoritySucceeded++
	}

	c.Heal()
	if err := c.WaitConverged(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The committer is single-threaded, so at most ONE write-set was in
	// flight at the cut. Uniform broadcast allows it to have stabilized at
	// the majority even though the sender was ejected before its own
	// delivery (the commit correctly reported ErrEjected; at-most-once, not
	// exactly-never). Anything beyond +1 is a leak from the coalescer.
	min, max := minoritySucceeded+majoritySucceeded, minoritySucceeded+majoritySucceeded+1
	for _, rep := range c.Replicas() {
		got := readBox(t, rep, "counter").(int)
		if got < min || got > max {
			t.Fatalf("replica %d: counter = %v, want in [%d, %d] (a failed mid-batch write-set leaked)",
				rep.ID(), got, min, max)
		}
	}
}

// TestCrashMidBatchFailsWaiters fail-stops a replica with a commit in the
// batching pipeline. The waiter must fail promptly (ErrStopped from the local
// close, or ErrEjected if the ejection won the race); uniformity decides
// whether the in-flight increment survives, so the survivors must only agree.
func TestCrashMidBatchFailsWaiters(t *testing.T) {
	c := newCluster(t, 3, core.Config{Protocol: core.ProtocolALC})

	succeeded := 0
	errs := make(chan error, 1)
	go func() {
		r := c.Replica(2)
		for {
			if err := r.Atomic(increment("counter")); err != nil {
				errs <- err
				return
			}
			succeeded++
		}
	}()

	time.Sleep(30 * time.Millisecond)
	c.Crash(2)

	select {
	case err := <-errs:
		if !errors.Is(err, core.ErrStopped) && !errors.Is(err, core.ErrEjected) {
			t.Fatalf("crashed replica's waiter failed with %v, want ErrStopped or ErrEjected", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("commit on the crashed replica never returned: waiter leaked mid-batch")
	}

	waitSurvivorCommit(t, c, 0)
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The crashed commit was either durably delivered (uniform) or nowhere:
	// survivors agree, and the count is the successes plus the survivor probe
	// plus at most the one in-flight increment.
	got0 := readBox(t, c.Replica(0), "counter").(int)
	got1 := readBox(t, c.Replica(1), "counter").(int)
	if got0 != got1 {
		t.Fatalf("survivors diverge: %d vs %d", got0, got1)
	}
	min, max := succeeded+1, succeeded+2
	if got0 < min || got0 > max {
		t.Fatalf("counter = %d, want in [%d, %d]", got0, min, max)
	}
}
