package stm

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/alcstm/alc/internal/transport"
)

// Concurrency tests for the commit path: these run many committers at once
// and check what the commit lock must give — no lost updates, monotone
// per-box histories, snapshot consistency, batches that become visible all
// at once, and a commit clock that counts exactly the committed write-sets.

// TestParallelDisjointCommits runs committers over disjoint boxes and checks
// every commit landed: each box ends at its committer's increment count and
// the clock advanced once per commit.
func TestParallelDisjointCommits(t *testing.T) {
	s := NewStore()
	const workers = 16
	const perWorker = 200
	for w := 0; w < workers; w++ {
		if _, err := s.CreateBox(fmt.Sprintf("d%02d", w), 0); err != nil {
			t.Fatal(err)
		}
	}
	start := s.CommitTimestamp()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			box := fmt.Sprintf("d%02d", w)
			for i := 0; i < perWorker; i++ {
				tx := s.Begin(false)
				v, err := tx.Read(box)
				if err != nil {
					t.Error(err)
					return
				}
				if err := tx.Write(box, v.(int)+1); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(TxnID{Replica: transport.ID(w + 1), Seq: uint64(i + 1)}); err != nil {
					t.Errorf("disjoint commit conflicted: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := s.CommitTimestamp()-start, int64(workers*perWorker); got != want {
		t.Fatalf("clock advanced %d, want %d", got, want)
	}
	for w := 0; w < workers; w++ {
		tx := s.Begin(true)
		v, err := tx.Read(fmt.Sprintf("d%02d", w))
		tx.Abort()
		if err != nil {
			t.Fatal(err)
		}
		if v.(int) != perWorker {
			t.Fatalf("box d%02d = %d, want %d", w, v, perWorker)
		}
	}
}

// TestParallelConflictingCommits hammers a single box from many goroutines
// with retry-on-conflict loops: the final value must equal the number of
// successful commits (no lost updates), and the per-box writer history must
// contain every successful writer exactly once.
func TestParallelConflictingCommits(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateBox("hot", 0); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 100
	var commits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for {
					tx := s.Begin(false)
					v, err := tx.Read("hot")
					if err != nil {
						t.Error(err)
						return
					}
					_ = tx.Write("hot", v.(int)+1)
					err = tx.Commit(TxnID{Replica: transport.ID(w + 1), Seq: uint64(i + 1)})
					if err == nil {
						commits.Add(1)
						break
					}
					if !errors.Is(err, ErrConflict) {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	tx := s.Begin(true)
	v, err := tx.Read("hot")
	tx.Abort()
	if err != nil {
		t.Fatal(err)
	}
	if int64(v.(int)) != commits.Load() {
		t.Fatalf("hot = %d, want %d successful commits (lost update)", v, commits.Load())
	}
	if int64(workers*perWorker) != commits.Load() {
		t.Fatalf("commits = %d, want %d", commits.Load(), workers*perWorker)
	}
	writers := s.VersionWriters("hot")
	seen := make(map[TxnID]bool, len(writers))
	for _, w := range writers {
		if !w.IsZero() && seen[w] {
			t.Fatalf("writer %v appears twice in history", w)
		}
		seen[w] = true
	}
}

// TestParallelSnapshotConsistency maintains the invariant x == y under
// concurrent read-modify-write transactions of {x,y} while readers assert
// that every snapshot they observe satisfies it. A reader seeing x != y
// would mean a half-installed commit became visible.
func TestParallelSnapshotConsistency(t *testing.T) {
	s := NewStore()
	for _, id := range []string{"x", "y"} {
		if _, err := s.CreateBox(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writers: increment x and y together, retrying conflicts.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seq := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := s.Begin(false)
				xv, err := tx.Read("x")
				if err != nil {
					t.Error(err)
					return
				}
				yv, err := tx.Read("y")
				if err != nil {
					t.Error(err)
					return
				}
				_ = tx.Write("x", xv.(int)+1)
				_ = tx.Write("y", yv.(int)+1)
				seq++
				if err := tx.Commit(TxnID{Replica: transport.ID(w + 1), Seq: seq}); err != nil && !errors.Is(err, ErrConflict) {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Readers: every snapshot must have x == y.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tx := s.Begin(true)
				xv, err := tx.Read("x")
				if err != nil {
					t.Error(err)
					return
				}
				yv, err := tx.Read("y")
				if err != nil {
					t.Error(err)
					return
				}
				tx.Abort()
				if xv.(int) != yv.(int) {
					t.Errorf("torn snapshot: x=%d y=%d", xv, yv)
					return
				}
			}
		}()
	}
	// Let readers finish, then stop writers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for i := 0; i < 4; i++ {
		runtime.Gosched()
	}
	close(stop)
	<-done
}

// TestSnapshotDuringParallelCommits takes full store snapshots while
// committers are running and checks each snapshot is internally consistent:
// the x/y pair invariant holds inside the captured state too.
func TestSnapshotDuringParallelCommits(t *testing.T) {
	s := NewStore()
	for _, id := range []string{"x", "y"} {
		if _, err := s.CreateBox(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seq := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := s.Begin(false)
				xv, _ := tx.Read("x")
				yv, _ := tx.Read("y")
				_ = tx.Write("x", xv.(int)+1)
				_ = tx.Write("y", yv.(int)+1)
				seq++
				if err := tx.Commit(TxnID{Replica: transport.ID(w + 1), Seq: seq}); err != nil && !errors.Is(err, ErrConflict) {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		snap := s.Snapshot()
		vals := make(map[string]int, 2)
		for _, bs := range snap.Boxes {
			vals[bs.Box] = bs.Value.(int)
		}
		if vals["x"] != vals["y"] {
			close(stop)
			wg.Wait()
			t.Fatalf("snapshot %d torn: x=%d y=%d", i, vals["x"], vals["y"])
		}
	}
	close(stop)
	wg.Wait()

	// A snapshot restored into a fresh store must round-trip clock and state.
	snap := s.Snapshot()
	dst := NewStore()
	dst.Restore(snap)
	if dst.CommitTimestamp() != snap.Clock {
		t.Fatalf("restored clock %d, want %d", dst.CommitTimestamp(), snap.Clock)
	}
	// And the restored store must accept new commits with ascending stamps.
	ts := dst.ApplyWriteSet(TxnID{Replica: 9, Seq: 1}, WriteSet{{Box: "x", Value: -1}})
	if ts != snap.Clock+1 {
		t.Fatalf("post-restore commit ts %d, want %d", ts, snap.Clock+1)
	}
}

// TestStale checks the one read-set validation: a fresh read-set returns
// nil; a stale one returns every stale entry with the writer that overwrote
// it, a box created since a read found it absent included.
func TestStale(t *testing.T) {
	s := NewStore()
	for _, id := range []string{"a", "b", "c"} {
		if _, err := s.CreateBox(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	rs := ReadSet{{Box: "a"}, {Box: "b"}, {Box: "c"}, {Box: "missing"}, {Box: "born"}}
	if conflicts := s.Stale(rs); conflicts != nil {
		t.Fatalf("fresh read-set: got conflicts %v", conflicts)
	}

	w1 := TxnID{Replica: 1, Seq: 1}
	w2 := TxnID{Replica: 2, Seq: 7}
	w3 := TxnID{Replica: 3, Seq: 2}
	s.ApplyWriteSet(w1, WriteSet{{Box: "a", Value: 1}})
	s.ApplyWriteSet(w2, WriteSet{{Box: "c", Value: 2}})
	s.ApplyWriteSet(w3, WriteSet{{Box: "born", Value: 3}})

	conflicts := s.Stale(rs)
	got := map[string]TxnID{}
	for _, c := range conflicts {
		got[c.Box] = c.Writer
	}
	want := map[string]TxnID{"a": w1, "c": w2, "born": w3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("conflicts = %v, want %v", got, want)
	}
	// A read of the head writer's version is fresh again.
	if c := s.Stale(ReadSet{{Box: "a", Writer: w1}, {Box: "born", Writer: w3}}); c != nil {
		t.Fatalf("reads of the head versions: got conflicts %v", c)
	}
}

// TestStaleAfterRestoreSetsClockBack: Restore may move the commit clock
// backwards (a state transfer from a replica that counted fewer local
// commits). A read taken before it must still be stale when its box's
// content was replaced, even though no version is newer than its snapshot.
func TestStaleAfterRestoreSetsClockBack(t *testing.T) {
	s := NewStore()
	mustCreate(t, s, "x", 0)
	for i := 1; i <= 5; i++ {
		s.ApplyWriteSet(txnID(uint64(i)), WriteSet{{Box: "x", Value: i}})
	}
	tx := s.Begin(false)
	mustRead(t, tx, "x")
	s.Restore(StoreSnapshot{Clock: 1, Boxes: []BoxState{{Box: "x", Writer: TxnID{Replica: 9, Seq: 1}, Value: 100}}})
	if s.CommitTimestamp() >= tx.Snapshot() {
		t.Fatalf("clock %d after Restore, want it behind the snapshot %d", s.CommitTimestamp(), tx.Snapshot())
	}
	if s.Stale(tx.ReadSet()) == nil {
		t.Fatal("read of x not stale after Restore replaced it")
	}
	_ = tx.Write("x", 6)
	if err := tx.Commit(txnID(6)); !errors.Is(err, ErrConflict) {
		t.Fatalf("Commit = %v, want ErrConflict", err)
	}
}

// TestStoreStats sanity-checks the commit-pipeline counters.
func TestStoreStats(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateBox("x", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.ApplyWriteSet(TxnID{Replica: 1, Seq: uint64(i + 1)}, WriteSet{{Box: "x", Value: i}})
	}
	s.ApplyWriteSets([]TxnWriteSet{
		{Writer: TxnID{Replica: 2, Seq: 1}, WS: WriteSet{{Box: "x", Value: 10}}},
		{Writer: TxnID{Replica: 2, Seq: 2}, WS: WriteSet{{Box: "y", Value: 11}}},
	})
	s.GC()

	st := s.Stats()
	if st.Applied != 7 {
		t.Fatalf("Applied = %d, want 7", st.Applied)
	}
	if st.GCRuns != 1 {
		t.Fatalf("GCRuns = %d, want 1", st.GCRuns)
	}
	if st.GCPruned == 0 {
		t.Fatal("GCPruned = 0, want > 0 (history of x had 6 dead versions)")
	}
	if st.Boxes != 2 {
		t.Fatalf("Boxes = %d, want 2", st.Boxes)
	}
	tx := s.Begin(true)
	if got := s.Stats().ActiveTxns; got != 1 {
		t.Fatalf("ActiveTxns = %d, want 1", got)
	}
	tx.Abort()
	if got := s.Stats().ActiveTxns; got != 0 {
		t.Fatalf("ActiveTxns after abort = %d, want 0", got)
	}
}

// TestCommitLockContentionCounted holds the commit lock while an
// ApplyWriteSet starts and checks the blocked acquisition is counted.
func TestCommitLockContentionCounted(t *testing.T) {
	s := NewStore()
	s.commitMu.Lock()
	done := make(chan int64)
	go func() { done <- s.ApplyWriteSet(TxnID{Replica: 1, Seq: 1}, WriteSet{{Box: "x", Value: 1}}) }()
	for s.lockContention.Load() == 0 {
		runtime.Gosched()
	}
	s.commitMu.Unlock()
	if ts := <-done; ts != 1 {
		t.Fatalf("ApplyWriteSet ts = %d, want 1", ts)
	}
	if got := s.Stats().StripeContention; got < 1 {
		t.Fatalf("StripeContention = %d, want >= 1", got)
	}
}

// TestParallelCommitStress is the CI stress companion (run with -race under
// the stm-stress job's GOMAXPROCS matrix): a mixed workload of disjoint
// committers, overlapping committers, batch appliers, readers, snapshots and
// GC, all concurrent, followed by full-state accounting.
func TestParallelCommitStress(t *testing.T) {
	s := NewStore()
	const (
		workers     = 12
		perWorker   = 150
		sharedBoxes = 4
	)
	for i := 0; i < sharedBoxes; i++ {
		if _, err := s.CreateBox(fmt.Sprintf("shared%d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	start := s.CommitTimestamp()
	var committed atomic.Int64
	var wg sync.WaitGroup

	// Disjoint committers: private box each.
	for w := 0; w < workers/2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			box := fmt.Sprintf("priv%02d", w)
			for i := 0; i < perWorker; i++ {
				tx := s.Begin(false)
				n := 0
				if v, err := tx.Read(box); err == nil {
					n = v.(int)
				}
				_ = tx.Write(box, n+1)
				if err := tx.Commit(TxnID{Replica: transport.ID(w + 1), Seq: uint64(i + 1)}); err != nil {
					t.Errorf("private-box commit failed: %v", err)
					return
				}
				committed.Add(1)
			}
		}(w)
	}
	// Overlapping committers: random-ish shared box, retry on conflict.
	for w := workers / 2; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				box := fmt.Sprintf("shared%d", (w+i)%sharedBoxes)
				for {
					tx := s.Begin(false)
					v, err := tx.Read(box)
					if err != nil {
						t.Error(err)
						return
					}
					_ = tx.Write(box, v.(int)+1)
					err = tx.Commit(TxnID{Replica: transport.ID(w + 1), Seq: uint64(i + 1)})
					if err == nil {
						committed.Add(1)
						break
					}
					if !errors.Is(err, ErrConflict) {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	// Background churn: batch applies, readers, snapshots, GC.
	stop := make(chan struct{})
	var churn sync.WaitGroup
	// Batch applier: the remote-apply path, disjoint from the committers.
	// It runs until they finish, so the batch reader below gets many
	// batches to watch.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			batch := []TxnWriteSet{
				{Writer: TxnID{Replica: 99, Seq: uint64(2*i + 1)}, WS: WriteSet{{Box: "remote0", Value: i}}},
				{Writer: TxnID{Replica: 99, Seq: uint64(2*i + 2)}, WS: WriteSet{{Box: "remote1", Value: i}}},
			}
			s.ApplyWriteSets(batch)
			committed.Add(2)
		}
	}()
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx := s.Begin(true)
			for i := 0; i < sharedBoxes; i++ {
				if _, err := tx.Read(fmt.Sprintf("shared%d", i)); err != nil {
					t.Error(err)
				}
			}
			tx.Abort()
			s.GC()
			_ = s.Snapshot()
		}
	}()
	// Batch reader: each batch writes the same value to remote0 and remote1,
	// so a snapshot that sees them differ saw half a batch.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx := s.Begin(true)
			r0, err0 := tx.Read("remote0")
			r1, err1 := tx.Read("remote1")
			tx.Abort()
			if err0 == nil && err1 == nil && r0 != r1 {
				t.Errorf("torn batch: remote0=%v remote1=%v", r0, r1)
				return
			}
		}
	}()

	wg.Wait()
	close(stop)
	churn.Wait()

	if got, want := s.CommitTimestamp()-start, committed.Load(); got != want {
		t.Fatalf("clock advanced %d, want %d (every commit exactly one tick)", got, want)
	}
	// Shared-box totals: sum of final values == number of shared-box commits.
	total := 0
	tx := s.Begin(true)
	for i := 0; i < sharedBoxes; i++ {
		v, err := tx.Read(fmt.Sprintf("shared%d", i))
		if err != nil {
			t.Fatal(err)
		}
		total += v.(int)
	}
	tx.Abort()
	if want := (workers - workers/2) * perWorker; total != want {
		t.Fatalf("shared commits accounted = %d, want %d (lost update)", total, want)
	}
	st := s.Stats()
	if st.Applied != committed.Load() {
		t.Fatalf("Stats.Applied = %d, want %d", st.Applied, committed.Load())
	}
}
