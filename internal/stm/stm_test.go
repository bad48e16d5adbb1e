package stm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func txnID(seq uint64) TxnID { return TxnID{Replica: 1, Seq: seq} }

func mustCreate(t *testing.T, s *Store, id string, v Value) {
	t.Helper()
	if _, err := s.CreateBox(id, v); err != nil {
		t.Fatalf("CreateBox(%q): %v", id, err)
	}
}

func mustRead(t *testing.T, tx *Txn, id string) Value {
	t.Helper()
	v, err := tx.Read(id)
	if err != nil {
		t.Fatalf("Read(%q): %v", id, err)
	}
	return v
}

func TestReadInitialValue(t *testing.T) {
	s := NewStore()
	mustCreate(t, s, "x", 10)

	tx := s.Begin(false)
	defer tx.Abort()
	if got := mustRead(t, tx, "x"); got != 10 {
		t.Fatalf("Read = %v, want 10", got)
	}
}

func TestReadMissingBox(t *testing.T) {
	s := NewStore()
	tx := s.Begin(false)
	defer tx.Abort()
	if _, err := tx.Read("nope"); !errors.Is(err, ErrNoSuchBox) {
		t.Fatalf("Read missing = %v, want ErrNoSuchBox", err)
	}
}

func TestCommitMakesWritesVisible(t *testing.T) {
	s := NewStore()
	mustCreate(t, s, "x", 1)

	tx := s.Begin(false)
	if err := tx.Write("x", 2); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := tx.Commit(txnID(1)); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	tx2 := s.Begin(true)
	defer tx2.Abort()
	if got := mustRead(t, tx2, "x"); got != 2 {
		t.Fatalf("Read after commit = %v, want 2", got)
	}
	if s.CommitTimestamp() != 1 {
		t.Fatalf("CommitTimestamp = %d, want 1", s.CommitTimestamp())
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	s := NewStore()
	mustCreate(t, s, "x", 1)
	tx := s.Begin(false)
	defer tx.Abort()
	if err := tx.Write("x", 99); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if got := mustRead(t, tx, "x"); got != 99 {
		t.Fatalf("Read own write = %v, want 99", got)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s := NewStore()
	mustCreate(t, s, "x", 1)

	old := s.Begin(false)
	defer old.Abort()

	w := s.Begin(false)
	if err := w.Write("x", 2); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := w.Commit(txnID(1)); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// The old transaction still sees the old snapshot.
	if got := mustRead(t, old, "x"); got != 1 {
		t.Fatalf("old txn Read = %v, want 1 (snapshot isolation)", got)
	}
}

func TestWriteWriteConflictAborts(t *testing.T) {
	s := NewStore()
	mustCreate(t, s, "x", 0)

	t1 := s.Begin(false)
	t2 := s.Begin(false)

	v1 := mustRead(t, t1, "x")
	v2 := mustRead(t, t2, "x")
	_ = t1.Write("x", v1.(int)+1)
	_ = t2.Write("x", v2.(int)+1)

	if err := t1.Commit(txnID(1)); err != nil {
		t.Fatalf("first Commit: %v", err)
	}
	if err := t2.Commit(txnID(2)); !errors.Is(err, ErrConflict) {
		t.Fatalf("second Commit = %v, want ErrConflict", err)
	}

	tx := s.Begin(true)
	defer tx.Abort()
	if got := mustRead(t, tx, "x"); got != 1 {
		t.Fatalf("x = %v after conflicting commits, want 1", got)
	}
}

func TestBlindWriteDoesNotConflict(t *testing.T) {
	s := NewStore()
	mustCreate(t, s, "x", 0)

	t1 := s.Begin(false)
	t2 := s.Begin(false)
	_ = t1.Write("x", 1) // blind write: no read
	_ = t2.Write("x", 2)

	if err := t1.Commit(txnID(1)); err != nil {
		t.Fatalf("t1 Commit: %v", err)
	}
	// t2 never read x, so its (empty) read-set validates.
	if err := t2.Commit(txnID(2)); err != nil {
		t.Fatalf("t2 Commit: %v", err)
	}
}

func TestReadOnlyNeverAborts(t *testing.T) {
	s := NewStore()
	mustCreate(t, s, "x", 0)

	ro := s.Begin(true)
	for i := 0; i < 10; i++ {
		w := s.Begin(false)
		_ = w.Write("x", i)
		if err := w.Commit(txnID(uint64(i + 1))); err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	if got := mustRead(t, ro, "x"); got != 0 {
		t.Fatalf("read-only txn sees %v, want snapshot value 0", got)
	}
	if err := ro.Commit(TxnID{}); err != nil {
		t.Fatalf("read-only Commit: %v", err)
	}
}

func TestReadOnlyWriteRejected(t *testing.T) {
	s := NewStore()
	ro := s.Begin(true)
	defer ro.Abort()
	if err := ro.Write("x", 1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Write on read-only = %v, want ErrReadOnly", err)
	}
}

func TestOperationsAfterFinish(t *testing.T) {
	s := NewStore()
	mustCreate(t, s, "x", 0)
	tx := s.Begin(false)
	tx.Abort()

	if _, err := tx.Read("x"); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Read after abort = %v, want ErrTxnDone", err)
	}
	if err := tx.Write("x", 1); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Write after abort = %v, want ErrTxnDone", err)
	}
	if err := tx.Commit(txnID(1)); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Commit after abort = %v, want ErrTxnDone", err)
	}
}

func TestWriteSetSortedAndDeduplicated(t *testing.T) {
	s := NewStore()
	tx := s.Begin(false)
	defer tx.Abort()
	_ = tx.Write("b", 1)
	_ = tx.Write("a", 2)
	_ = tx.Write("b", 3) // overwrite: final value wins

	ws := tx.WriteSet()
	if len(ws) != 2 {
		t.Fatalf("WriteSet len = %d, want 2", len(ws))
	}
	if ws[0].Box != "a" || ws[1].Box != "b" || ws[1].Value != 3 {
		t.Fatalf("WriteSet = %+v", ws)
	}
}

func TestReadSetRecordsFirstObservedWriter(t *testing.T) {
	s := NewStore()
	mustCreate(t, s, "x", 0)

	w := s.Begin(false)
	_ = w.Write("x", 1)
	if err := w.Commit(txnID(7)); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	tx := s.Begin(false)
	defer tx.Abort()
	mustRead(t, tx, "x")
	rs := tx.ReadSet()
	if len(rs) != 1 || rs[0].Box != "x" || rs[0].Writer != txnID(7) {
		t.Fatalf("ReadSet = %+v, want [{x txn(1:7)}]", rs)
	}
}

func TestApplyRemoteWriteSet(t *testing.T) {
	s := NewStore()
	mustCreate(t, s, "x", 0)

	remote := TxnID{Replica: 9, Seq: 1}
	ts := s.ApplyWriteSet(remote, WriteSet{{Box: "x", Value: 42}, {Box: "y", Value: "new"}})
	if ts != 1 {
		t.Fatalf("ApplyWriteSet ts = %d, want 1", ts)
	}

	tx := s.Begin(true)
	defer tx.Abort()
	if got := mustRead(t, tx, "x"); got != 42 {
		t.Fatalf("x = %v, want 42", got)
	}
	if got := mustRead(t, tx, "y"); got != "new" {
		t.Fatalf("y = %v, want new (box created by remote write-set)", got)
	}
}

func TestRemoteWriteSetInvalidatesLocalReader(t *testing.T) {
	s := NewStore()
	mustCreate(t, s, "x", 0)

	tx := s.Begin(false)
	mustRead(t, tx, "x")

	s.ApplyWriteSet(TxnID{Replica: 2, Seq: 1}, WriteSet{{Box: "x", Value: 1}})

	if s.Stale(tx.ReadSet()) == nil {
		t.Fatal("read-set not stale after remote update of read box")
	}
	_ = tx.Write("x", 5)
	if err := tx.Commit(txnID(1)); !errors.Is(err, ErrConflict) {
		t.Fatalf("Commit = %v, want ErrConflict", err)
	}
}

func TestValidateMissingBoxStillValid(t *testing.T) {
	s := NewStore()
	tx := s.Begin(false)
	defer tx.Abort()
	// Reading a missing box fails and records a read of its initial version,
	// which stays valid while the box stays missing.
	if _, err := tx.Read("ghost"); !errors.Is(err, ErrNoSuchBox) {
		t.Fatalf("Read = %v", err)
	}
	if rs := tx.ReadSet(); len(rs) != 1 || rs[0] != (ReadEntry{Box: "ghost"}) {
		t.Fatalf("ReadSet = %+v, want a read of ghost's initial version", rs)
	}
	if c := s.Stale(tx.ReadSet()); c != nil {
		t.Fatalf("read-set stale (%v) while the box is still missing", c)
	}
}

// TestAbsentReadsConflict: two transactions both find k absent and both
// create it. Exactly one commits; the other's read of "absent" is stale, or
// the first increment of a key could be lost (both would write 1).
func TestAbsentReadsConflict(t *testing.T) {
	s := NewStore()
	a, b := s.Begin(false), s.Begin(false)
	for _, tx := range []*Txn{a, b} {
		if _, err := tx.Read("k"); !errors.Is(err, ErrNoSuchBox) {
			t.Fatalf("Read = %v, want ErrNoSuchBox", err)
		}
		_ = tx.Write("k", 1)
	}
	if err := a.Commit(txnID(1)); err != nil {
		t.Fatalf("first Commit = %v", err)
	}
	if err := b.Commit(txnID(2)); !errors.Is(err, ErrConflict) {
		t.Fatalf("second Commit = %v, want ErrConflict", err)
	}
}

func TestBoxCreatedAfterSnapshotInvisible(t *testing.T) {
	s := NewStore()
	tx := s.Begin(false)
	defer tx.Abort()

	s.ApplyWriteSet(TxnID{Replica: 2, Seq: 1}, WriteSet{{Box: "late", Value: 1}})

	if _, err := tx.Read("late"); !errors.Is(err, ErrNoSuchBox) {
		t.Fatalf("Read box created after snapshot = %v, want ErrNoSuchBox", err)
	}
}

func TestGCPrunesOldVersions(t *testing.T) {
	s := NewStore()
	mustCreate(t, s, "x", 0)
	for i := 1; i <= 100; i++ {
		s.ApplyWriteSet(txnID(uint64(i)), WriteSet{{Box: "x", Value: i}})
	}

	pruned := s.GC()
	if pruned != 100 {
		t.Fatalf("GC pruned %d versions, want 100", pruned)
	}

	tx := s.Begin(true)
	defer tx.Abort()
	if got := mustRead(t, tx, "x"); got != 100 {
		t.Fatalf("x after GC = %v, want 100", got)
	}
}

func TestGCRespectsActiveSnapshots(t *testing.T) {
	s := NewStore()
	mustCreate(t, s, "x", 0)

	old := s.Begin(true) // pins snapshot 0
	for i := 1; i <= 10; i++ {
		s.ApplyWriteSet(txnID(uint64(i)), WriteSet{{Box: "x", Value: i}})
	}

	s.GC()
	// The old reader must still find its version.
	if got := mustRead(t, old, "x"); got != 0 {
		t.Fatalf("pinned snapshot read = %v, want 0", got)
	}
	old.Abort()

	if pruned := s.GC(); pruned != 10 {
		t.Fatalf("GC after release pruned %d, want 10", pruned)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := NewStore()
	mustCreate(t, src, "a", 1)
	mustCreate(t, src, "b", "two")
	src.ApplyWriteSet(txnID(1), WriteSet{{Box: "a", Value: 10}})

	snap := src.Snapshot()
	if snap.Clock != 1 || len(snap.Boxes) != 2 {
		t.Fatalf("Snapshot = clock %d, %d boxes", snap.Clock, len(snap.Boxes))
	}

	dst := NewStore()
	dst.Restore(snap)
	if dst.CommitTimestamp() != 1 {
		t.Fatalf("restored clock = %d, want 1", dst.CommitTimestamp())
	}
	tx := dst.Begin(true)
	defer tx.Abort()
	if got := mustRead(t, tx, "a"); got != 10 {
		t.Fatalf("restored a = %v, want 10", got)
	}
	if got := mustRead(t, tx, "b"); got != "two" {
		t.Fatalf("restored b = %v, want two", got)
	}
}

func TestCreateBoxDuplicate(t *testing.T) {
	s := NewStore()
	mustCreate(t, s, "x", 0)
	if _, err := s.CreateBox("x", 1); err == nil {
		t.Fatal("duplicate CreateBox succeeded")
	}
}

func TestActiveTxnsTracking(t *testing.T) {
	s := NewStore()
	if n := s.ActiveTxns(); n != 0 {
		t.Fatalf("ActiveTxns = %d, want 0", n)
	}
	t1 := s.Begin(false)
	t2 := s.Begin(true)
	if n := s.ActiveTxns(); n != 2 {
		t.Fatalf("ActiveTxns = %d, want 2", n)
	}
	t1.Abort()
	t2.Abort()
	if n := s.ActiveTxns(); n != 0 {
		t.Fatalf("ActiveTxns after finish = %d, want 0", n)
	}
}

// TestConcurrentCounterSerializability hammers a single counter from many
// goroutines with retry loops and checks that the final value equals the
// number of successful increments: the classic lost-update litmus test.
func TestConcurrentCounterSerializability(t *testing.T) {
	s := NewStore()
	mustCreate(t, s, "counter", 0)

	const (
		goroutines = 8
		increments = 50
	)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		seqs uint64
	)
	nextID := func() TxnID {
		mu.Lock()
		defer mu.Unlock()
		seqs++
		return txnID(seqs)
	}

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				for {
					tx := s.Begin(false)
					v, err := tx.Read("counter")
					if err != nil {
						t.Error(err)
						tx.Abort()
						return
					}
					_ = tx.Write("counter", v.(int)+1)
					if err := tx.Commit(nextID()); err == nil {
						break
					}
				}
			}
		}()
	}
	wg.Wait()

	tx := s.Begin(true)
	defer tx.Abort()
	if got := mustRead(t, tx, "counter"); got != goroutines*increments {
		t.Fatalf("counter = %v, want %d", got, goroutines*increments)
	}
}

// TestConcurrentDisjointWritersNoConflicts checks that transactions touching
// disjoint boxes never abort.
func TestConcurrentDisjointWritersNoConflicts(t *testing.T) {
	s := NewStore()
	const goroutines = 8
	for g := 0; g < goroutines; g++ {
		mustCreate(t, s, fmt.Sprintf("slot:%d", g), 0)
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			box := fmt.Sprintf("slot:%d", g)
			for i := 0; i < 100; i++ {
				tx := s.Begin(false)
				v, err := tx.Read(box)
				if err != nil {
					errs <- err
					tx.Abort()
					return
				}
				_ = tx.Write(box, v.(int)+1)
				if err := tx.Commit(TxnID{Replica: 1, Seq: uint64(g*1000 + i)}); err != nil {
					errs <- fmt.Errorf("disjoint writer aborted: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentGC runs GC concurrently with readers and writers to shake
// out races in version-chain truncation.
func TestConcurrentGC(t *testing.T) {
	s := NewStore()
	mustCreate(t, s, "x", 0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.ApplyWriteSet(txnID(uint64(i+1)), WriteSet{{Box: "x", Value: i}})
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx := s.Begin(true)
			_, _ = tx.Read("x")
			tx.Abort()
			s.GC()
		}
	}()

	for i := 0; i < 1000; i++ {
		tx := s.Begin(true)
		if _, err := tx.Read("x"); err != nil {
			t.Errorf("reader: %v", err)
		}
		tx.Abort()
	}
	close(stop)
	wg.Wait()
}
