// Package stm implements a multi-version software transactional memory
// modelled on JVSTM (Cachopo & Rito-Silva, "Versioned boxes as the basis for
// memory transactions"), the local STM that the ALC replication protocol is
// layered on.
//
// The central abstraction is the versioned box (VBox): a container holding a
// timestamp-tagged history of values. The store maintains an integer
// commitTimestamp that is incremented by every committed write transaction;
// a transaction reads the newest version of each box that is no newer than
// its snapshot, giving opacity (even doomed transactions only ever observe
// consistent states) and making read-only transactions abort-free and
// wait-free.
//
// Beyond plain JVSTM, the package exposes the three extension points the
// paper's Replication Manager needs (§3):
//
//  1. extraction of a transaction's read-set, write-set and snapshot,
//  2. explicit validation of a read-set against the latest committed state
//     (Stale),
//  3. atomic application of a remotely executed transaction's write-set
//     (ApplyWriteSet), which also advances commitTimestamp.
//
// Each committed version additionally records the globally unique ID of the
// transaction that wrote it. Version writer IDs — unlike raw timestamps,
// which can diverge across replicas when non-conflicting write-sets are
// applied in different orders — are identical at every replica for the
// versions a transaction observed, and are what the certification protocols
// exchange to validate read-sets deterministically cluster-wide.
//
// # Commit concurrency
//
// Commits serialize on one commit lock per store, as they do on JVSTM's
// global lock. Txn.Commit, ApplyWriteSet and ApplyWriteSets take it,
// install their versions at clock+1, clock+2, ..., store the clock once and
// release it; Snapshot and Restore take it as their barrier. Readers never
// take it: a transaction reads at the clock it saw at Begin, and the clock
// only moves after a commit (or a whole batch) is fully installed, so no
// snapshot shows half a commit or half a batch. DESIGN.md decision 12
// records why one lock, not striped locks.
package stm

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/alcstm/alc/internal/transport"
)

// Value is the content of a versioned box. Values must be immutable: they are
// shared between transactions, version histories and (on the in-memory
// transport) between replicas.
type Value = any

// TxnID globally identifies a write transaction: the replica that executed it
// and a replica-local sequence number. The zero TxnID denotes the initial
// version of a box.
type TxnID struct {
	Replica transport.ID
	Seq     uint64
}

// IsZero reports whether the ID is the zero (initial-version) ID.
func (id TxnID) IsZero() bool { return id == TxnID{} }

func (id TxnID) String() string {
	if id.IsZero() {
		return "txn(init)"
	}
	return fmt.Sprintf("txn(%d:%d)", id.Replica, id.Seq)
}

// Errors returned by transaction operations.
var (
	// ErrNoSuchBox is returned by Txn.Read for a box that does not exist in
	// the transaction's snapshot.
	ErrNoSuchBox = errors.New("stm: no such box")
	// ErrConflict is returned when validation detects that the transaction
	// read stale data and must be re-executed.
	ErrConflict = errors.New("stm: conflict, transaction must retry")
	// ErrTxnDone is returned when operating on a committed or aborted Txn.
	ErrTxnDone = errors.New("stm: transaction already finished")
	// ErrReadOnly is returned by Write on a read-only transaction.
	ErrReadOnly = errors.New("stm: write in read-only transaction")
)

// version is one entry in a box's history. Histories are singly linked from
// newest to oldest; the head pointer is swung atomically so readers never
// take locks.
type version struct {
	ts     int64
	writer TxnID
	value  Value
	// prev links to the next older version. It is atomic because GC
	// truncates histories concurrently with lock-free readers.
	prev atomic.Pointer[version]
}

// VBox is a versioned box: a replicated transactional memory cell.
type VBox struct {
	id   string
	head atomic.Pointer[version]
}

// ID returns the box's globally unique identifier.
func (b *VBox) ID() string { return b.id }

// read returns the newest version with ts <= snapshot, or nil if the box did
// not exist at that snapshot.
func (b *VBox) read(snapshot int64) *version {
	for v := b.head.Load(); v != nil; v = v.prev.Load() {
		if v.ts <= snapshot {
			return v
		}
	}
	return nil
}

// boxShardCount sizes the striped box index (a power of two).
const boxShardCount = 64

// hashID is FNV-1a over the box ID; its low bits pick the box shard.
func hashID(id string) uint32 {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return h
}

// boxShard is one slice of the striped box index.
type boxShard struct {
	mu    sync.RWMutex
	boxes map[string]*VBox
}

// Store is one replica's transactional heap: the set of versioned boxes plus
// the commit clock. The zero value is not usable; call NewStore.
type Store struct {
	shards [boxShardCount]boxShard

	// commitMu is the store's one commit lock: every commit holds it from
	// validation to the clock store, and Snapshot and Restore hold it as
	// their barrier.
	commitMu sync.Mutex
	// clock is the commit timestamp: the newest fully installed commit. It
	// is stored only under commitMu and read lock-free.
	clock atomic.Int64

	// restores counts Restore calls (state transfers). A restored store's
	// version histories are truncated to the snapshot heads, which
	// disqualifies it as a full-history witness for the offline checker.
	restores atomic.Int64

	snapshots snapshotTracker

	// Contention/throughput counters (see Stats).
	applied        atomic.Int64
	lockContention atomic.Int64
	gcRuns         atomic.Int64
	gcPruned       atomic.Int64
}

// Restores returns how many times the store's content was replaced by a
// state-transfer snapshot (Restore). Zero means every retained version
// history is complete back to the initial state (modulo GC).
func (s *Store) Restores() int64 { return s.restores.Load() }

// NewStore creates an empty store with commitTimestamp 0.
func NewStore() *Store {
	s := &Store{snapshots: snapshotTracker{counts: make(map[int64]int)}}
	for i := range s.shards {
		s.shards[i].boxes = make(map[string]*VBox)
	}
	return s
}

// CommitTimestamp returns the store's current commit clock.
func (s *Store) CommitTimestamp() int64 { return s.clock.Load() }

// CreateBox creates a box with the given initial value at the current commit
// timestamp. It is intended for pre-seeding state before a replica starts
// processing transactions; boxes written by transactions are created
// implicitly when their write-sets are applied.
func (s *Store) CreateBox(id string, initial Value) (*VBox, error) {
	sh := &s.shards[hashID(id)&(boxShardCount-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.boxes[id]; ok {
		return nil, fmt.Errorf("stm: box %q already exists", id)
	}
	b := &VBox{id: id}
	b.head.Store(&version{ts: s.clock.Load(), value: initial})
	sh.boxes[id] = b
	return b, nil
}

// Box returns the box with the given ID, if it exists.
func (s *Store) Box(id string) (*VBox, bool) {
	sh := &s.shards[hashID(id)&(boxShardCount-1)]
	sh.mu.RLock()
	b, ok := sh.boxes[id]
	sh.mu.RUnlock()
	return b, ok
}

// ensureBox returns the box with the given ID, creating an empty (no
// versions) box if absent. Used when applying write-sets that create boxes.
func (s *Store) ensureBox(id string) *VBox {
	sh := &s.shards[hashID(id)&(boxShardCount-1)]
	sh.mu.RLock()
	b, ok := sh.boxes[id]
	sh.mu.RUnlock()
	if ok {
		return b
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if b, ok = sh.boxes[id]; ok {
		return b
	}
	b = &VBox{id: id}
	sh.boxes[id] = b
	return b
}

// NumBoxes returns the number of boxes in the store.
func (s *Store) NumBoxes() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.boxes)
		sh.mu.RUnlock()
	}
	return n
}

// Begin starts a transaction against the current snapshot.
func (s *Store) Begin(readOnly bool) *Txn {
	t := &Txn{store: s, readOnly: readOnly}
	t.snapshot = s.snapshots.acquire(&s.clock)
	t.reads.list = t.readBuf[:0]
	t.writes.list = t.writeBuf[:0]
	return t
}

// lockCommit takes the commit lock, counting acquisitions that find it held.
func (s *Store) lockCommit() {
	if !s.commitMu.TryLock() {
		s.lockContention.Add(1)
		s.commitMu.Lock()
	}
}

// install prepends one version per write-set entry, all tagged ts. The
// caller holds the commit lock.
func (s *Store) install(writer TxnID, ws WriteSet, ts int64) {
	for _, e := range ws {
		b := s.ensureBox(e.Box)
		v := &version{ts: ts, writer: writer, value: e.Value}
		v.prev.Store(b.head.Load())
		b.head.Store(v)
	}
}

// ApplyWriteSet atomically installs ws as a new committed version of every
// box it touches, tagged with the given writer ID, and advances the commit
// clock by one. It is used both to commit local transactions and to apply
// the write-sets of remotely executed transactions (§3, extension iii).
// It returns the new commit timestamp.
func (s *Store) ApplyWriteSet(writer TxnID, ws WriteSet) int64 {
	return s.ApplyWriteSets([]TxnWriteSet{{Writer: writer, WS: ws}})
}

// TxnWriteSet pairs a write-set with the transaction that produced it, for
// bulk application.
type TxnWriteSet struct {
	Writer TxnID
	WS     WriteSet
}

// ApplyWriteSets installs a batch of write-sets under one acquisition of
// the commit lock, in order; each write-set still gets its own commit
// timestamp, and the whole batch becomes visible atomically (the clock is
// stored once, after the last write-set). It returns the timestamp of the
// last write-set applied (the new commit clock), or the current clock when
// the batch is empty.
func (s *Store) ApplyWriteSets(batch []TxnWriteSet) int64 {
	if len(batch) == 0 {
		return s.clock.Load()
	}
	s.lockCommit()
	ts := s.clock.Load()
	for i := range batch {
		ts++
		s.install(batch[i].Writer, batch[i].WS, ts)
	}
	s.clock.Store(ts)
	s.commitMu.Unlock()
	s.applied.Add(int64(len(batch)))
	return ts
}

// ReadConflict describes one stale read-set entry: the box and the writer of
// its current head version. The writer identity lets the replication layer
// attribute a validation failure to a local or a remote transaction (the
// history checker's ≤1-remote-abort invariant).
type ReadConflict struct {
	Box    string
	Writer TxnID
}

// Stale is the store's one read-set validation: it returns, for every read
// whose recorded writer is no longer the writer of the box's head version,
// the box and that head writer, and nil when the read-set is still valid. A
// read of an absent box recorded the zero writer, so a box created since is
// stale. Writer identities, not commit timestamps, are compared: they mean
// the same at every replica and survive Restore, which may set the clock
// back. The scan is lock-free; Txn.Commit holds the commit lock around it,
// and the replication manager relies on its in-flight table and leases to
// keep conflicting committers out of the window.
func (s *Store) Stale(rs ReadSet) []ReadConflict {
	var out []ReadConflict
	for _, r := range rs {
		if head, _ := s.HeadWriter(r.Box); head != r.Writer {
			out = append(out, ReadConflict{Box: r.Box, Writer: head})
		}
	}
	return out
}

// GC prunes box histories: for every box, all versions older than the newest
// version visible at the oldest active snapshot are discarded. It returns
// the number of versions pruned.
//
// GC never blocks committers: it walks the box index one shard at a time
// (briefly holding that shard's read lock to copy its box pointers) and
// truncates histories through the same atomic prev pointers readers
// traverse. In-flight commits only ever prepend versions newer than the
// watermark, so the cut point cannot race them.
func (s *Store) GC() int {
	watermark := s.snapshots.min(s.clock.Load())
	pruned := 0
	var boxes []*VBox
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		boxes = boxes[:0]
		for _, b := range sh.boxes {
			boxes = append(boxes, b)
		}
		sh.mu.RUnlock()

		for _, b := range boxes {
			// Find the newest version with ts <= watermark; anything older is
			// unreachable by any current or future transaction.
			v := b.head.Load()
			for v != nil && v.ts > watermark {
				v = v.prev.Load()
			}
			if v == nil {
				continue
			}
			for cut := v.prev.Load(); cut != nil; cut = cut.prev.Load() {
				pruned++
			}
			v.prev.Store(nil)
		}
	}
	s.gcRuns.Add(1)
	s.gcPruned.Add(int64(pruned))
	return pruned
}

// ActiveTxns returns the number of transactions currently in flight.
func (s *Store) ActiveTxns() int { return s.snapshots.count() }

// Txn is a transaction. A Txn must be used by a single goroutine; the store
// itself is safe for any number of concurrent transactions.
type Txn struct {
	store    *Store
	snapshot int64
	readOnly bool
	done     bool

	// reads records each box read with the writer of the version observed;
	// writes buffers the transaction's updates (redo log). Both start in the
	// inline arrays, so a small update transaction is one allocation.
	reads    entrySet[ReadEntry]
	writes   entrySet[WriteEntry]
	readBuf  [inlineEntries]ReadEntry
	writeBuf [inlineEntries]WriteEntry
}

// inlineEntries is how many reads and writes a transaction holds before its
// sets move out of the Txn itself.
const inlineEntries = 2

// Snapshot returns the commit timestamp the transaction is reading at
// (JVSTM's snapshotID).
func (t *Txn) Snapshot() int64 { return t.snapshot }

// ReadOnly reports whether the transaction was started read-only.
func (t *Txn) ReadOnly() bool { return t.readOnly }

// Read returns the value of the box visible in the transaction's snapshot,
// or the transaction's own buffered write if it wrote the box.
func (t *Txn) Read(id string) (Value, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	if !t.readOnly {
		if i := t.writes.find(id); i >= 0 {
			return t.writes.list[i].Value, nil
		}
	}
	var v *version
	if b, ok := t.store.Box(id); ok {
		v = b.read(t.snapshot) // nil: box created after our snapshot
	}
	if !t.readOnly && t.reads.find(id) < 0 {
		// An absent box is read as its initial version (the zero writer),
		// so validation sees a concurrent creation as a conflict.
		var w TxnID
		if v != nil {
			w = v.writer
		}
		t.reads.add(ReadEntry{Box: id, Writer: w})
	}
	if v == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchBox, id)
	}
	return v.value, nil
}

// Write buffers a new value for the box. The box need not exist yet: writing
// creates it at commit time.
func (t *Txn) Write(id string, v Value) error {
	switch {
	case t.done:
		return ErrTxnDone
	case t.readOnly:
		return ErrReadOnly
	}
	if i := t.writes.find(id); i >= 0 {
		t.writes.list[i].Value = v
	} else {
		t.writes.add(WriteEntry{Box: id, Value: v})
	}
	return nil
}

// IsUpdate reports whether the transaction has buffered any writes.
func (t *Txn) IsUpdate() bool { return len(t.writes.list) > 0 }

// ReadSet returns the transaction's read-set: every box it read together
// with the writer ID of the version it observed, sorted by box ID. The
// result is the only allocation, and the caller's to keep.
func (t *Txn) ReadSet() ReadSet {
	rs := ReadSet(slices.Clone(t.reads.list))
	slices.SortFunc(rs, func(a, b ReadEntry) int { return strings.Compare(a.Box, b.Box) })
	return rs
}

// WriteSet returns the transaction's buffered writes, sorted by box ID. The
// result is the only allocation, and the caller's to keep.
func (t *Txn) WriteSet() WriteSet {
	ws := WriteSet(slices.Clone(t.writes.list))
	slices.SortFunc(ws, func(a, b WriteEntry) int { return strings.Compare(a.Box, b.Box) })
	return ws
}

// Commit certifies the transaction against the local store only and, on
// success, applies its writes with the given writer ID, which must be unique
// to this commit: validation compares writer identities. The commit lock is
// held from validation until the clock is stored, so no other commit can
// interleave; this is the linearization point of a locally certified commit.
// Replicated deployments do not call Commit: the Replication Manager
// certifies through the cluster-wide protocol and calls Store.ApplyWriteSet.
// Commit is the standalone (single-process) usage of the STM.
func (t *Txn) Commit(writer TxnID) error {
	if t.done {
		return ErrTxnDone
	}
	defer t.finish()
	if t.readOnly || len(t.writes.list) == 0 {
		// Multi-version snapshots make read-only transactions trivially
		// serializable: nothing to validate or write.
		return nil
	}
	s := t.store
	s.lockCommit()
	defer s.commitMu.Unlock()
	if s.Stale(t.reads.list) != nil {
		return ErrConflict
	}
	ts := s.clock.Load() + 1
	s.install(writer, t.writes.list, ts)
	s.clock.Store(ts)
	s.applied.Add(1)
	return nil
}

// Abort discards the transaction. Aborting an already finished transaction
// is a no-op.
func (t *Txn) Abort() {
	if !t.done {
		t.finish()
	}
}

// Finish releases the transaction's snapshot without committing; it is used
// by the replication layer after it has applied the write-set itself.
func (t *Txn) Finish() { t.Abort() }

func (t *Txn) finish() {
	t.done = true
	t.store.snapshots.release(t.snapshot)
}

// snapshotTracker tracks the multiset of active snapshots so GC knows the
// oldest snapshot any live transaction can read.
type snapshotTracker struct {
	mu     sync.Mutex
	counts map[int64]int
}

// acquire reads the clock and registers it as an active snapshot. The clock
// is read under the tracker lock: a snapshot taken from a clock read before
// the registration could be older than the fallback of a concurrent min,
// and GC would prune the versions it needs.
func (st *snapshotTracker) acquire(clock *atomic.Int64) int64 {
	st.mu.Lock()
	snap := clock.Load()
	st.counts[snap]++
	st.mu.Unlock()
	return snap
}

func (st *snapshotTracker) release(snap int64) {
	st.mu.Lock()
	if st.counts[snap] <= 1 {
		delete(st.counts, snap)
	} else {
		st.counts[snap]--
	}
	st.mu.Unlock()
}

// min returns the oldest active snapshot, or fallback if none are active. A
// transaction registering after the scan read the clock after the caller
// read fallback, so its snapshot is no older than fallback (the clock never
// retreats) and the result is always a safe GC watermark.
func (st *snapshotTracker) min(fallback int64) int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	m := fallback
	for snap := range st.counts {
		if snap < m {
			m = snap
		}
	}
	return m
}

func (st *snapshotTracker) count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, c := range st.counts {
		n += c
	}
	return n
}

// HeadWriter returns the writer ID of the box's latest committed version.
// The second result is false if the box does not exist (or has no version).
// Writer identities are replica-independent, which makes them the unit of
// read-set validation (Stale).
func (s *Store) HeadWriter(id string) (TxnID, bool) {
	b, ok := s.Box(id)
	if !ok {
		return TxnID{}, false
	}
	v := b.head.Load()
	if v == nil {
		return TxnID{}, false
	}
	return v.writer, true
}
