package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/bloom"
	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/transport"
	"github.com/alcstm/alc/internal/wal"
)

// Integration coverage for the replication managers lives in
// internal/cluster; this file unit-tests the package's pure pieces and the
// commit pipeline's building blocks (in-flight table, commit waiter, the
// delivery-time apply) in isolation.

func TestProtocolString(t *testing.T) {
	if ProtocolALC.String() != "ALC" || ProtocolCert.String() != "CERT" {
		t.Fatalf("got %v / %v", ProtocolALC, ProtocolCert)
	}
	if got := Protocol(99).String(); got != "Protocol(99)" {
		t.Fatalf("unknown protocol = %q", got)
	}
}

func TestStatsAbortRate(t *testing.T) {
	tests := []struct {
		name    string
		commits int64
		aborts  int64
		want    float64
	}{
		{"empty", 0, 0, 0},
		{"no aborts", 10, 0, 0},
		{"half", 5, 5, 0.5},
		{"all aborts", 0, 3, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := Stats{Commits: tt.commits, Aborts: tt.aborts}
			if got := s.AbortRate(); got != tt.want {
				t.Fatalf("AbortRate = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDataSetUnion(t *testing.T) {
	r := &Replica{}
	rs := stm.ReadSet{{Box: "a"}, {Box: "b"}}
	ws := stm.WriteSet{{Box: "b", Value: 1}, {Box: "c", Value: 2}}
	got := r.dataClasses(rs, ws)
	if want := (lease.Mapper{}).Classes([]string{"a", "b", "c"}); !slices.Equal(got, want) {
		t.Fatalf("dataClasses = %v, want the classes of {a,b,c} %v", got, want)
	}
}

func TestAccumulate(t *testing.T) {
	acc := accumulate(nil, []lease.ConflictClass{1, 2})
	acc = accumulate(acc, []lease.ConflictClass{2, 3})
	if len(acc) != 3 {
		t.Fatalf("accumulate = %v, want {1,2,3}", acc)
	}
}

func TestCertLogScanWindow(t *testing.T) {
	l := newCertLog(8)
	for ts := int64(1); ts <= 10; ts++ {
		l.append(ts, []string{boxName(ts)})
	}

	// Inside the window, non-conflicting scan succeeds.
	visited := map[string]bool{}
	ok := l.scan(4, 10, func(box string) bool {
		visited[box] = true
		return true
	})
	if !ok || len(visited) != 7 {
		t.Fatalf("scan(4..10) ok=%t visited=%d, want true/7", ok, len(visited))
	}

	// Conflict stops the scan.
	ok = l.scan(4, 10, func(box string) bool { return box != boxName(6) })
	if ok {
		t.Fatal("scan ignored a conflict")
	}

	// Entries older than the retained window (ts 1,2 were overwritten)
	// abort conservatively.
	if l.scan(1, 10, func(string) bool { return true }) {
		t.Fatal("scan outside the window should fail conservatively")
	}
}

func TestCertLogSnapshotRestore(t *testing.T) {
	l := newCertLog(16)
	// Only CERT appends: until then (every ALC replica, always) the ring is
	// not allocated, and the log still answers like an empty one.
	l.restore(nil)
	if l.ring != nil || l.capacity() != 16 || len(l.snapshot()) != 0 ||
		l.scan(1, 1, func(string) bool { return true }) || !l.scan(1, 0, nil) {
		t.Fatalf("untouched log: ring=%v capacity=%d snapshot=%v", l.ring, l.capacity(), l.snapshot())
	}
	for ts := int64(1); ts <= 5; ts++ {
		l.append(ts, []string{boxName(ts)})
	}
	entries := l.snapshot()
	if len(entries) != 5 {
		t.Fatalf("snapshot has %d entries, want 5", len(entries))
	}

	m := newCertLog(16)
	m.restore(entries)
	if !m.scan(1, 5, func(string) bool { return true }) {
		t.Fatal("restored log cannot serve its window")
	}
}

func TestRSCheckerExact(t *testing.T) {
	m := &certMsg{RSExact: []string{"a", "b"}}
	c, err := m.checker()
	if err != nil {
		t.Fatal(err)
	}
	if !c.contains("a") || c.contains("z") {
		t.Fatal("exact checker wrong")
	}
}

func TestRSCheckerBloom(t *testing.T) {
	f := bloom.NewWithFPRate(8, 0.01)
	f.AddAll([]string{"a", "b"})
	m := &certMsg{RSBloom: f.Marshal()}
	c, err := m.checker()
	if err != nil {
		t.Fatal(err)
	}
	if !c.contains("a") || !c.contains("b") {
		t.Fatal("bloom checker lost members")
	}
}

func TestRSCheckerBadBloom(t *testing.T) {
	m := &certMsg{RSBloom: []byte{1, 2, 3}}
	if _, err := m.checker(); err == nil {
		t.Fatal("malformed bloom accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fillDefaults()
	if c.Protocol != ProtocolALC {
		t.Fatalf("default protocol = %v", c.Protocol)
	}
	if c.GCEvery != 4096 {
		t.Fatalf("default GC interval = %d", c.GCEvery)
	}
}

func boxName(ts int64) string { return string(rune('a' + ts)) }

// --- Commit pipeline pieces -----------------------------------------------------

// within fails the test when ch does not fire in time; stillBlocked fails it
// when ch fires although the event it signals must not have happened yet (a
// bounded wait: it can miss a bug on a slow host, never report a false one).
func within(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func stillBlocked(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
		t.Fatalf("%s", what)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestInflightReserveBlocksOnIntersection(t *testing.T) {
	tbl := newInflightTable()
	alive := func() bool { return true }
	held := []lease.ConflictClass{3}
	if !tbl.reserve(nil, held, alive) {
		t.Fatal("first reservation refused")
	}
	// A disjoint committer is not held up.
	other := []lease.ConflictClass{4}
	if !tbl.reserve(other, other, alive) {
		t.Fatal("disjoint reservation refused")
	}
	tbl.release(other)

	got := make(chan struct{})
	go func() {
		if !tbl.reserve([]lease.ConflictClass{5, 3}, []lease.ConflictClass{5}, alive) {
			t.Error("intersecting reservation refused instead of admitted after release")
		}
		close(got)
	}()
	stillBlocked(t, got, "reserve admitted a committer intersecting an in-flight write-set")
	tbl.release(held)
	within(t, got, "reserve to proceed after release")

	// The admitted reservation is now the in-flight one for class 5.
	tbl.release([]lease.ConflictClass{5})
	if !tbl.reserve([]lease.ConflictClass{3, 5}, nil, alive) {
		t.Fatal("table not empty after every release")
	}
}

func TestInflightResetWakesWaitersDead(t *testing.T) {
	tbl := newInflightTable()
	var alive atomic.Bool
	alive.Store(true)
	cls := []lease.ConflictClass{11}
	if !tbl.reserve(nil, cls, alive.Load) {
		t.Fatal("first reservation refused")
	}
	result := make(chan bool, 1)
	done := make(chan struct{})
	go func() {
		result <- tbl.reserve(cls, cls, alive.Load)
		close(done)
	}()
	stillBlocked(t, done, "reserve admitted a committer intersecting an in-flight write-set")

	// Ejection order: primary flag first, then the table reset.
	alive.Store(false)
	tbl.reset()
	within(t, done, "reset to wake the waiter")
	if <-result {
		t.Fatal("waiter woken by reset reserved although the replica is not alive")
	}
	// reset cleared the original reservation and the refused waiter left none.
	alive.Store(true)
	if !tbl.reserve(cls, nil, alive.Load) {
		t.Fatal("reservation survived reset")
	}
}

// newTestReplica starts a single-member replica over an in-memory network.
func newTestReplica(t *testing.T) *Replica {
	t.Helper()
	return newTestReplicaWith(t, Config{})
}

func newTestReplicaWith(t *testing.T, cfg Config) *Replica {
	t.Helper()
	net := memnet.New(memnet.Config{})
	tr, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(tr, cfg, gcs.Config{Members: []transport.ID{0}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = r.Close()
		net.Close()
	})
	return r
}

func TestCommitWaiter(t *testing.T) {
	r := newTestReplica(t)
	fired := func(ch chan error) (error, bool) {
		select {
		case err := <-ch:
			return err, true
		default:
			return nil, false
		}
	}

	// The outcome fires once; a later resolution finds no waiter.
	id := r.nextTxnID()
	ch := r.registerWaiter(id, nil)
	r.resolveWaiter(id, ErrEjected)
	if err, ok := fired(ch); !ok || !errors.Is(err, ErrEjected) {
		t.Fatalf("after an error: fired=%t err=%v, want true/ErrEjected", ok, err)
	}
	r.resolveWaiter(id, nil) // must neither block nor fire again
	if _, ok := fired(ch); ok {
		t.Fatal("waiter fired twice")
	}

	id = r.nextTxnID()
	ch = r.registerWaiter(id, nil)
	r.resolveWaiter(id, nil)
	if err, ok := fired(ch); !ok || err != nil {
		t.Fatalf("success: fired=%t err=%v, want true/nil", ok, err)
	}

	// Close fails whatever is still registered.
	id = r.nextTxnID()
	ch = r.registerWaiter(id, nil)
	_ = r.Close()
	if err, ok := fired(ch); !ok || !errors.Is(err, ErrStopped) {
		t.Fatalf("after Close: fired=%t err=%v, want true/ErrStopped", ok, err)
	}
}

// TestURDeliverAppliesBeforeReturning pins the apply contract: when
// OnURDeliver returns from a write-set batch, every write-set is in the
// store, the local committer's waiter has its outcome and its in-flight
// reservation is released. Whatever the dispatcher handles next — a lease
// release, a view change, a state snapshot — sees everything delivered
// before it.
// takeDispatcher waits for r's first view and stops its GCS dispatcher, so
// the calling goroutine can drive the upcalls in its place.
func takeDispatcher(t *testing.T, r *Replica) {
	t.Helper()
	if err := r.WaitForView(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := r.ep.Close(); err != nil {
		t.Fatal(err)
	}
}

// wsBatch is a delivered batch of single-box write-sets, one per id.
func wsBatch(box string, ids ...stm.TxnID) *applyWSBatchMsg {
	m := &applyWSBatchMsg{}
	for _, id := range ids {
		m.Entries = append(m.Entries, applyWSEntry{
			TxnID: id,
			WS:    stm.WriteSet{{Box: box, Value: fmt.Sprintf("%d/%d", id.Replica, id.Seq)}},
		})
	}
	return m
}

func TestURDeliverAppliesBeforeReturning(t *testing.T) {
	r := newTestReplica(t)
	takeDispatcher(t, r)

	// A batch large enough that an apply handed to another goroutine could
	// not finish before the checks below run.
	var entries []applyWSEntry
	for i := 1; i <= 256; i++ {
		entries = append(entries, applyWSEntry{
			TxnID: stm.TxnID{Replica: 1, Seq: uint64(i)},
			WS:    stm.WriteSet{{Box: fmt.Sprintf("remote-%d", i), Value: i}},
		})
	}
	own := r.nextTxnID()
	ownWS := stm.WriteSet{{Box: "own", Value: "mine"}}
	cls := r.wsClasses(ownWS)
	if !r.inflight.reserve(nil, cls, r.alive) {
		t.Fatal("reservation refused")
	}
	outcome := r.registerWaiter(own, cls)
	entries = append(entries, applyWSEntry{TxnID: own, WS: ownWS})

	(&gcsHandler{r}).OnURDeliver(1, &applyWSBatchMsg{Entries: entries})

	for _, e := range entries {
		if w, ok := r.store.HeadWriter(e.WS[0].Box); !ok || w != e.TxnID {
			t.Fatalf("box %s: head writer %v (exists %t) when OnURDeliver returned, want %v",
				e.WS[0].Box, w, ok, e.TxnID)
		}
	}
	select {
	case err := <-outcome:
		if err != nil {
			t.Fatalf("local commit outcome = %v, want nil", err)
		}
	default:
		t.Fatal("local waiter unresolved when OnURDeliver returned")
	}
	r.inflight.mu.Lock()
	held := r.inflight.intersects(cls)
	r.inflight.mu.Unlock()
	if held {
		t.Fatal("in-flight reservation still held when OnURDeliver returned")
	}
}

// TestURDeliverAppliesInDeliveryOrder: batches that write the same box, from
// different senders, leave the store as the delivery order says, one
// OnURDeliver at a time.
func TestURDeliverAppliesInDeliveryOrder(t *testing.T) {
	r := newTestReplica(t)
	takeDispatcher(t, r)
	h := &gcsHandler{r}
	for _, id := range []stm.TxnID{{Replica: 2, Seq: 1}, {Replica: 1, Seq: 1}, {Replica: 2, Seq: 2}, {Replica: 1, Seq: 2}} {
		h.OnURDeliver(id.Replica, wsBatch("shared", id))
		if w, ok := r.store.HeadWriter("shared"); !ok || w != id {
			t.Fatalf("after delivering %v: head writer %v (exists %t), want the last delivered", id, w, ok)
		}
	}
	// Within one batch, the later entry wins as well.
	first, second := stm.TxnID{Replica: 3, Seq: 1}, stm.TxnID{Replica: 3, Seq: 2}
	h.OnURDeliver(3, wsBatch("shared", first, second))
	if w, _ := r.store.HeadWriter("shared"); w != second {
		t.Fatalf("head writer %v after a two-entry batch, want its last entry %v", w, second)
	}
}

// TestURDeliverSkipsRedeliveredEntries: a write-set delivered again (a resend
// after a view change) is not applied twice, so it cannot overwrite a later
// write-set from the same sender.
func TestURDeliverSkipsRedeliveredEntries(t *testing.T) {
	r := newTestReplica(t)
	takeDispatcher(t, r)
	h := &gcsHandler{r}
	old, newer := stm.TxnID{Replica: 1, Seq: 1}, stm.TxnID{Replica: 1, Seq: 2}
	h.OnURDeliver(1, wsBatch("k", old))
	h.OnURDeliver(1, wsBatch("k", newer))
	h.OnURDeliver(1, wsBatch("k", old))
	if w, _ := r.store.HeadWriter("k"); w != newer {
		t.Fatalf("head writer %v after a redelivery of %v, want %v", w, old, newer)
	}
	if got := r.dur.filteredSeen.Value() + r.dur.filteredNever.Value(); got != 1 {
		t.Fatalf("durability filter dropped %d entries, want the one redelivered", got)
	}
}

// TestURDeliverLogsBeforeReturning: on a durable replica with the "always"
// fsync policy, a delivered batch is in the write-ahead log when OnURDeliver
// returns.
func TestURDeliverLogsBeforeReturning(t *testing.T) {
	dir := t.TempDir()
	r := newTestReplicaWith(t, Config{Durability: DurabilityConfig{Dir: dir, Fsync: "always", SnapshotEvery: -1}})
	takeDispatcher(t, r)
	ids := []stm.TxnID{{Replica: 1, Seq: 1}, {Replica: 1, Seq: 2}, {Replica: 2, Seq: 1}}
	(&gcsHandler{r}).OnURDeliver(1, wsBatch("logged", ids...))

	var logged []stm.TxnID
	if _, _, err := wal.Replay(wal.LogPath(dir), func(payload []byte) error {
		entries, err := readWALRecord(payload)
		for _, e := range entries {
			logged = append(logged, e.TxnID)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(logged, ids) {
		t.Fatalf("log holds %v when OnURDeliver returned, want %v", logged, ids)
	}
}

// TestFullInstallAbortsStraddlingTransaction: a full state install may set
// the store's commit clock back (here from 5 to 1). A transaction that read x
// before the install and commits after it read a version the install
// replaced; no version is newer than its snapshot, so only a validation by
// writer identity sees it. It must re-execute against the installed x = 100,
// not commit x = 6 over it.
func TestFullInstallAbortsStraddlingTransaction(t *testing.T) {
	r := newTestReplica(t)
	if err := r.WaitForView(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := r.Seed(map[string]stm.Value{"x": 0}); err != nil {
		t.Fatal(err)
	}
	inc := func(tx *stm.Txn) error {
		v, err := tx.Read("x")
		if err != nil {
			return err
		}
		return tx.Write("x", v.(int)+1)
	}
	for range 5 {
		if err := r.Atomic(inc); err != nil {
			t.Fatal(err)
		}
	}
	if ts := r.store.CommitTimestamp(); ts != 5 {
		t.Fatalf("clock %d after 5 increments, want 5", ts)
	}

	read, resume := make(chan struct{}), make(chan struct{})
	var attempts atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- r.Atomic(func(tx *stm.Txn) error {
			v, err := tx.Read("x")
			if err != nil {
				return err
			}
			if attempts.Add(1) == 1 {
				close(read)
				<-resume
			}
			return tx.Write("x", v.(int)+1)
		})
	}()
	within(t, read, "the increment's read")

	frontier, toAbove := r.dur.cut()
	(&gcsHandler{r}).InstallState(&xferState{
		Store: stm.StoreSnapshot{Clock: 1, Boxes: []stm.BoxState{
			{Box: "x", Writer: stm.TxnID{Replica: 9, Seq: 1}, Value: 100},
		}},
		Leases:   r.lm.SnapshotState(),
		Frontier: frontier,
		TOAbove:  toAbove,
	})
	if ts := r.store.CommitTimestamp(); ts != 1 {
		t.Fatalf("clock %d after the install, want 1", ts)
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var x any
	if err := r.AtomicRO(func(tx *stm.Txn) (err error) { x, err = tx.Read("x"); return err }); err != nil {
		t.Fatal(err)
	}
	if x != 101 || attempts.Load() != 2 {
		t.Fatalf("x = %v after %d attempts, want 101 after 2 (the read of x = 5 is stale)", x, attempts.Load())
	}
}
