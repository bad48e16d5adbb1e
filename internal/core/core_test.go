package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/bloom"
	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/transport"
)

// Integration coverage for the replication managers lives in
// internal/cluster; this file unit-tests the package's pure pieces and the
// commit pipeline's building blocks (apply scheduler, in-flight table,
// commit waiter) in isolation.

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
	rs := stm.ReadSet{{Box: "a"}, {Box: "b"}}
	ws := stm.WriteSet{{Box: "b", Value: 1}, {Box: "c", Value: 2}}
	got := dataSet(rs, ws)
	if len(got) != 3 {
		t.Fatalf("dataSet = %v, want 3 distinct items", got)
	}
	seen := map[string]bool{}
	for _, it := range got {
		seen[it] = true
	}
	for _, want := range []string{"a", "b", "c"} {
		if !seen[want] {
			t.Fatalf("dataSet missing %q: %v", want, got)
		}
	}
}

func TestAccumulate(t *testing.T) {
	acc := accumulate(nil, []string{"a", "b"})
	acc = accumulate(acc, []string{"b", "c"})
	if len(acc) != 3 {
		t.Fatalf("accumulate = %v, want {a,b,c}", acc)
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

// gatedTask returns a task that signals started, then blocks until release is
// closed, then appends name to order.
func gatedTask(name string, classes []lease.ConflictClass, sender transport.ID,
	release <-chan struct{}, mu *sync.Mutex, order *[]string) (*applyTask, <-chan struct{}) {
	started := make(chan struct{})
	return &applyTask{classes: classes, sender: sender, run: func() {
		close(started)
		<-release
		mu.Lock()
		*order = append(*order, name)
		mu.Unlock()
	}}, started
}

func TestApplySchedulerOrdersDependentTasks(t *testing.T) {
	open := make(chan struct{})
	close(open)
	tests := []struct {
		name                string
		secondCls           []lease.ConflictClass
		secondSender        transport.ID
		wantDependsOnFirst  bool
		wantConcurrentStart bool
	}{
		{"intersecting classes", []lease.ConflictClass{1, 7}, 2, true, false},
		{"same sender", []lease.ConflictClass{9}, 1, true, false},
		{"disjoint classes, other sender", []lease.ConflictClass{9}, 2, false, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := newApplyScheduler(4)
			defer s.close()
			var (
				mu      sync.Mutex
				order   []string
				release = make(chan struct{})
			)
			first, firstStarted := gatedTask("first", []lease.ConflictClass{1}, 1, release, &mu, &order)
			second, secondStarted := gatedTask("second", tt.secondCls, tt.secondSender, open, &mu, &order)
			s.submit(first)
			within(t, firstStarted, "first task to start")
			s.submit(second)

			if tt.wantDependsOnFirst {
				stillBlocked(t, secondStarted, "dependent task started while its predecessor was still running")
			}
			if tt.wantConcurrentStart {
				within(t, secondStarted, "independent task to start beside the running one")
			}
			close(release)
			s.drain()

			mu.Lock()
			defer mu.Unlock()
			if len(order) != 2 {
				t.Fatalf("completed %v, want both tasks", order)
			}
			if tt.wantDependsOnFirst && order[0] != "first" {
				t.Fatalf("completion order = %v, want submission order", order)
			}
			if tasks, maxPar := s.stats(); tasks != 2 || (tt.wantConcurrentStart && maxPar < 2) {
				t.Fatalf("stats = (%d tasks, %d max parallel)", tasks, maxPar)
			}
		})
	}
}

func TestApplySchedulerDrainWaitsForRunningTask(t *testing.T) {
	s := newApplyScheduler(2)
	defer s.close()
	var (
		mu      sync.Mutex
		order   []string
		release = make(chan struct{})
	)
	task, started := gatedTask("task", []lease.ConflictClass{1}, 1, release, &mu, &order)
	s.submit(task)
	within(t, started, "task to start")

	drained := make(chan struct{})
	go func() { s.drain(); close(drained) }()
	stillBlocked(t, drained, "drain returned while a task was running")
	if got := s.backlog(); got != 1 {
		t.Fatalf("backlog = %d, want 1", got)
	}
	close(release)
	within(t, drained, "drain after the task finished")
	if got := s.backlog(); got != 0 {
		t.Fatalf("backlog after drain = %d, want 0", got)
	}
}

// TestApplySchedulerDrainDoesNotTakeWorkerWakeups: a task that becomes ready
// wakes one parked worker, never a drainer in its place, and a drain blocked
// behind a running task returns once it finishes while the other workers stay
// parked. The drainer starts waiting before the second worker parks, and
// nothing wakes either in between, so on a cond shared by both the drainer
// would be first in line for the next task's wake-up.
func TestApplySchedulerDrainDoesNotTakeWorkerWakeups(t *testing.T) {
	s := newApplyScheduler(2)
	defer s.close()
	var (
		mu                 sync.Mutex
		order              []string
		release0, release1 = make(chan struct{}), make(chan struct{})
		free0, free1       sync.Once // a failing test still lets close return
		open               = make(chan struct{})
	)
	defer free0.Do(func() { close(release0) })
	defer free1.Do(func() { close(release1) })
	close(open)
	long, longStarted := gatedTask("long", []lease.ConflictClass{1}, 1, release0, &mu, &order)
	short, shortStarted := gatedTask("short", []lease.ConflictClass{2}, 2, release1, &mu, &order)
	behind, _ := gatedTask("behind-long", []lease.ConflictClass{1}, 3, open, &mu, &order)
	s.submit(long)
	s.submit(short)
	s.submit(behind) // queued until long finishes
	within(t, longStarted, "first task to start")
	within(t, shortStarted, "second task to start")

	drained := make(chan struct{})
	go func() { s.drain(); close(drained) }()
	stillBlocked(t, drained, "drain returned while a task was running")
	free1.Do(func() { close(release1) })
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		running := s.running
		s.mu.Unlock()
		if running == 1 {
			break // the second worker has parked again
		}
		if time.Now().After(deadline) {
			t.Fatal("the second task never finished")
		}
	}

	late, lateStarted := gatedTask("late", []lease.ConflictClass{3}, 4, open, &mu, &order)
	s.submit(late)
	within(t, lateStarted, "a task submitted while a drainer waits to start")
	stillBlocked(t, drained, "drain returned while a task was running")

	free0.Do(func() { close(release0) })
	within(t, drained, "drain after every task finished")
	s.mu.Lock()
	running, ready := s.running, len(s.ready)
	s.mu.Unlock()
	if running != 0 || ready != 0 {
		t.Fatalf("after the drains: %d running, %d ready, want every worker parked", running, ready)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 4 {
		t.Fatalf("completed %v, want all four tasks", order)
	}
}

// TestApplySchedulerCloseWaitsForWorkers: close must not return while a task
// is running or queued — Replica.Close relies on it to close the WAL only
// after the last applyEntries returned.
func TestApplySchedulerCloseWaitsForWorkers(t *testing.T) {
	s := newApplyScheduler(2)
	var (
		release  = make(chan struct{})
		finished atomic.Int32
	)
	started := make(chan struct{})
	s.submit(&applyTask{classes: []lease.ConflictClass{1}, sender: 1, run: func() {
		close(started)
		<-release
		finished.Add(1)
	}})
	// Queued behind the running task (same class): must still run before
	// close returns.
	s.submit(&applyTask{classes: []lease.ConflictClass{1}, sender: 2, run: func() { finished.Add(1) }})
	within(t, started, "task to start")

	closed := make(chan struct{})
	go func() { s.close(); close(closed) }()
	stillBlocked(t, closed, "close returned while a task was still running")
	close(release)
	within(t, closed, "close after the queue ran dry")
	if got := finished.Load(); got != 2 {
		t.Fatalf("%d tasks finished before close returned, want 2", got)
	}
}

func TestInflightReserveBlocksOnIntersection(t *testing.T) {
	tbl := newInflightTable()
	alive := func() bool { return true }
	held := []lease.ConflictClass{3}
	if !tbl.reserve(nil, held, alive) {
		t.Fatal("first reservation refused")
	}
	// A disjoint committer (even one on the same stripe) is not held up.
	other := []lease.ConflictClass{3 + inflightStripes}
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
	net := memnet.New(memnet.Config{})
	tr, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(tr, Config{}, gcs.Config{Members: []transport.ID{0}})
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
	ch := r.registerWaiter(id)
	r.resolveWaiter(id, ErrEjected)
	if err, ok := fired(ch); !ok || !errors.Is(err, ErrEjected) {
		t.Fatalf("after an error: fired=%t err=%v, want true/ErrEjected", ok, err)
	}
	r.resolveWaiter(id, nil) // must neither block nor fire again
	if _, ok := fired(ch); ok {
		t.Fatal("waiter fired twice")
	}

	id = r.nextTxnID()
	ch = r.registerWaiter(id)
	r.resolveWaiter(id, nil)
	if err, ok := fired(ch); !ok || err != nil {
		t.Fatalf("success: fired=%t err=%v, want true/nil", ok, err)
	}

	// Close fails whatever is still registered.
	id = r.nextTxnID()
	ch = r.registerWaiter(id)
	_ = r.Close()
	if err, ok := fired(ch); !ok || !errors.Is(err, ErrStopped) {
		t.Fatalf("after Close: fired=%t err=%v, want true/ErrStopped", ok, err)
	}
}
