package core

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alcstm/alc/internal/metrics"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/transport"
	"github.com/alcstm/alc/internal/wal"
	"github.com/alcstm/alc/internal/wire"
)

// DurabilityConfig enables the per-replica durability tier: a write-ahead
// log of applied write-set batches plus periodic store snapshots, giving a
// restarted replica a local base to recover from so it can rejoin via a
// delta state transfer instead of pulling the full store.
type DurabilityConfig struct {
	// Dir is the replica's durability directory (WAL + snapshot). Empty
	// disables persistence; the in-memory delta-transfer bookkeeping (applied
	// frontier + retained entry ring) stays on regardless, so a memory-only
	// replica can still *serve* deltas to durable peers.
	Dir string
	// Fsync selects the log's fsync policy: "always", "interval" (default)
	// or "off". See wal.Policy.
	Fsync string
	// FsyncInterval is the "interval" policy's period. Default 5ms.
	FsyncInterval time.Duration
	// SnapshotEvery takes a store snapshot (and truncates the log) after
	// this many logged write-sets. Default 4096; negative disables periodic
	// snapshots (the log then grows until Close).
	SnapshotEvery int
	// Retain is how many applied write-set entries every replica keeps in
	// memory for serving delta transfers. A joiner whose gap outruns this
	// window falls back to a full transfer. Default 8192.
	Retain int
}

func (c *DurabilityConfig) fillDefaults() {
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 4096
	}
	if c.Retain <= 0 {
		c.Retain = 8192
	}
	if c.FsyncInterval <= 0 {
		c.FsyncInterval = 5 * time.Millisecond
	}
}

// WALStats is the durability tier's counters.
type WALStats struct {
	// Enabled reports whether a durability directory is configured.
	Enabled bool
	// Records / AppendedBytes count framed records written to the log.
	Records       int64
	AppendedBytes int64
	// FsyncLatency is the distribution of fsync call latencies.
	FsyncLatency metrics.HistogramSnapshot
	// Snapshots counts durable store snapshots taken; LastSnapshotUnixNano
	// is the wall-clock time of the latest one (0: never).
	Snapshots            int64
	LastSnapshotUnixNano int64
	// Recovery: what the last restart replayed.
	RecoveredFromSnapshot bool
	ReplayedRecords       int64
	ReplayedEntries       int64
	ReplayDuration        time.Duration
	// Delta state transfer, both directions: served to joiners by this
	// replica, and installed on this replica as a joiner.
	DeltasServed   int64
	FullsServed    int64
	DeltaInstalled int64
	FullInstalled  int64
	// DeltaDeclined counts the joiners this replica's delta declined, by
	// reason; each was then sent a full transfer (FullsServed also counts
	// joiners that advertised no frontier at all).
	DeltaDeclined DeltaDeclines
	// LastDeltaBytes / LastFullBytes are the wire-encoded sizes of the most
	// recent transfer served (best-effort: 0 when RegisterWire was never
	// called, as over in-memory transports, or a box value has no codec).
	LastDeltaBytes int64
	LastFullBytes  int64
	// RetainedEntries is the current delta-window length (gauge).
	RetainedEntries int64
	// FilteredSeen / FilteredNeverSeen count entries the apply path's
	// frontier filter dropped as already absorbed. Seen: the entry is still
	// in the retained window or at/below its eviction watermark — a
	// genuine duplicate (a delta install over a stale advertised frontier, a
	// replayed log record the snapshot covers). NeverSeen: at/below the
	// frontier yet in neither — an entry overtaken by a later one from its
	// writer, i.e. an acknowledged commit being lost; must stay 0.
	FilteredSeen      int64
	FilteredNeverSeen int64
	// Errors counts durability faults: encode/write/snapshot failures (the
	// replica degrades to memory-only operation rather than stopping) and
	// recovery discarding a snapshot, log or log suffix it cannot use.
	Errors int64
}

// DeltaDeclines breaks WALStats.DeltaDeclined down by the rule that sent a
// joiner with an advertised frontier a full transfer instead of a delta.
type DeltaDeclines struct {
	// Ahead: the joiner claimed progress past this replica's frontier, so
	// their histories are incomparable.
	Ahead int64
	// Epoch: the joiner's TO lane is from another epoch, so its payload
	// ordinals name other transactions.
	Epoch int64
	// Evicted: the gap reaches entries already evicted from the retained
	// window, so the suffix would be incomplete.
	Evicted int64
}

// declineReason is why durable.delta demanded a full transfer; deltaServed
// (the zero value) means it did not.
type declineReason uint8

const (
	deltaServed declineReason = iota
	declineAhead
	declineEpoch
	declineEvicted
	numDeclineReasons
)

// walFormat is the first byte of every WAL record and snapshot payload, ahead
// of fields in the wire codec (the same helpers that put write-sets and store
// snapshots on the network, so one fuzzed decoder guards disk and network):
//
//	record:   walFormat · appendWSEntries — one applied batch in apply order
//	snapshot: walFormat · appendStoreSnapshot · appendFrontier, in
//	          advertised() form · appendOrds, the TO lane's applied entries
//	          past its frontier
//
// The value is one no encoding/gob stream can begin with (its leading length
// byte is 0x00-0x7F or 0xF8-0xFF), so a directory written by the gob-era
// build fails decoding at byte 0; bump it for any incompatible layout change.
// 0xA1 was the layout with a shard-group number on every record and a
// frontier per shard group in the snapshot; 0xA2 the snapshot without the TO
// lane's applied entries past its frontier.
const walFormat byte = 0xA3

func appendWALRecord(b []byte, entries []applyWSEntry) ([]byte, error) {
	return appendWSEntries(append(b, walFormat), entries)
}

func readWALRecord(payload []byte) ([]applyWSEntry, error) {
	r := walReader(payload)
	entries, err := readWSEntries(r)
	return entries, walPayloadEnd(r, err)
}

func appendWALSnapshot(b []byte, store stm.StoreSnapshot, front map[transport.ID]uint64, toAbove []int64) ([]byte, error) {
	b, err := appendStoreSnapshot(append(b, walFormat), store)
	if err != nil {
		return b, err
	}
	return appendOrds(appendFrontier(b, front), toAbove), nil
}

func readWALSnapshot(payload []byte) (stm.StoreSnapshot, map[transport.ID]uint64, []int64, error) {
	r := walReader(payload)
	store, err := readStoreSnapshot(r)
	if err != nil {
		return store, nil, nil, err
	}
	front := readFrontier(r)
	toAbove := readOrds(r)
	return store, front, toAbove, walPayloadEnd(r, nil)
}

// walReader returns a copying reader (decoded values outlive the replay
// buffer) over the payload past its format byte — over nothing when the
// format is foreign, so the decoder's first read fails.
func walReader(payload []byte) *wire.Reader {
	r := wire.NewReader(payload)
	if r.Byte() != walFormat {
		return wire.NewReader(nil)
	}
	return r
}

// walPayloadEnd closes a payload decode: the first decode error, or trailing
// bytes — a payload must be consumed exactly.
func walPayloadEnd(r *wire.Reader, err error) error {
	if err == nil {
		err = r.Err()
	}
	if err == nil && r.Len() != 0 {
		err = fmt.Errorf("core: %d trailing bytes after wal payload", r.Len())
	}
	return err
}

// appliedState is the durability + delta-transfer bookkeeping of what the
// store has absorbed.
//
// frontier[w] is the highest Seq of an applied URB-lane write-set written by
// replica w. It is the replica-independent progress marker deltas are keyed
// on: commit timestamps diverge across replicas (each store numbers its own
// commits), but writer sequence numbers are assigned once, by the writer,
// and per-writer application order is FIFO (causal URB, applied in delivery
// order on the dispatcher), so the frontier is monotone and exactly
// characterizes "which URB transactions has this store absorbed".
//
// The TO lane is keyed on an ordinal every replica agrees on: CERT's commit
// clock (assigned in TO-delivery order, and applied in that order), or, for a
// §4.5(c) piggybacked commit, its lease request's TO position (applied when
// the request is enabled, which is not in position order) within the lease
// table's epoch (see toEpochShift). toFrontier says every TO-lane entry at or
// below it is resolved here — applied, or certain never to be applied
// anywhere; toAbove holds the entries applied past it. CERT advances
// toFrontier entry by entry; ALC advances it to the lease manager's
// ResolvedTO (resolvePayloads).
type appliedState struct {
	frontier   map[transport.ID]uint64
	toFrontier int64
	toAbove    []int64
	// ring is the retained suffix of applied entries, capped at cfg.Retain:
	// a circular buffer that grows by append until full and then overwrites
	// its oldest entry, ring[head] (read it through at, oldest first).
	// evicted[w] / evictedTO are the highest URB Seq per writer / TO ordinal
	// dropped from the ring (a joiner needing anything at or below them that
	// it does not already have must take a full transfer).
	ring      []applyWSEntry
	head      int
	evicted   map[transport.ID]uint64
	evictedTO int64
	// hasState means the store content exactly equals the frontier-implied
	// state, so the frontier may be advertised in a joinReq: set for initial
	// (non-joining) members at birth, after a successful local recovery, and
	// after a full state install. Never set by a delta install alone (it was
	// already required to be set for the delta to have been requested).
	hasState bool
}

// toEpochShift splits an ALC TO-lane ordinal in two: the high bits number the
// lease-table epoch, the low bits are a lease request's TO position in it.
// Lease positions restart at 1 whenever the group starts afresh (every member
// non-joining, as after a whole-cluster restart from the durability
// directories), so an initial member opens a new epoch (openTOEpoch) and a
// joiner takes the epoch of the state it installs. Without it, a restarted
// cluster's payloads would be numbered at or below the recovered frontier and
// dropped as absorbed. 2^40 positions is years of lease requests at the
// throughput of one group.
const toEpochShift = 40

// toEpochBase is the first ordinal of ord's epoch.
func toEpochBase(ord int64) int64 { return ord >> toEpochShift << toEpochShift }

// resetTo restarts the bookkeeping at advertised frontier f (see
// advertised): the delta window is empty and its eviction watermarks sit at
// f, because nothing at or below f can be served from the ring. A nil f is
// the stateless store: zero frontiers, nothing to advertise.
func (sh *appliedState) resetTo(f map[transport.ID]uint64) {
	*sh = appliedState{
		frontier:   make(map[transport.ID]uint64, len(f)),
		evicted:    make(map[transport.ID]uint64, len(f)),
		toFrontier: int64(f[transport.Nobody]),
		evictedTO:  int64(f[transport.Nobody]),
		hasState:   f != nil,
	}
	for w, seq := range f {
		if w != transport.Nobody {
			sh.frontier[w], sh.evicted[w] = seq, seq
		}
	}
}

// advertised returns a copy of the applied frontier — the per-writer URB
// frontier plus, keyed under transport.Nobody (no writer ever has that ID,
// and it keeps the wire format a plain ID→seq map), the TO commit clock — or
// nil when the local store is not a complete frontier-consistent state. It
// is what a joinReq carries (nil makes the coordinator ship a full transfer)
// and what the snapshot file records.
func (sh *appliedState) advertised() map[transport.ID]uint64 {
	if !sh.hasState {
		return nil
	}
	f := make(map[transport.ID]uint64, len(sh.frontier)+1)
	for w, seq := range sh.frontier {
		f[w] = seq
	}
	f[transport.Nobody] = uint64(sh.toFrontier)
	return f
}

// at returns the i-th oldest retained entry, 0 <= i < len(sh.ring).
func (sh *appliedState) at(i int) *applyWSEntry {
	return &sh.ring[(sh.head+i)%len(sh.ring)]
}

// adoptTOAbove takes the TO lane's applied entries past the frontier from a
// snapshot or a full transfer. They are absorbed but not in the delta window,
// so the eviction watermark rises past them: a joiner that may lack one needs
// a full transfer.
func (sh *appliedState) adoptTOAbove(toAbove []int64) {
	sh.toAbove = toAbove
	for _, o := range toAbove {
		sh.evictedTO = max(sh.evictedTO, o)
	}
}

// absorbedTO reports whether the TO-lane entry at ord is resolved here.
func (sh *appliedState) absorbedTO(ord int64) bool {
	return ord <= sh.toFrontier || slices.Contains(sh.toAbove, ord)
}

// applyTO records the TO-lane entry at ord as applied: it extends the
// frontier when it is the next ordinal, and waits in toAbove otherwise. The
// first entry of a later epoch (a log replay across a group restart) moves
// the frontier to that epoch's base: the older epochs are closed.
func (sh *appliedState) applyTO(ord int64) {
	if b := toEpochBase(ord); b > sh.toFrontier {
		sh.resolveTO(b)
	}
	if ord != sh.toFrontier+1 {
		sh.toAbove = append(sh.toAbove, ord)
		return
	}
	sh.toFrontier = ord
	sh.liftTO()
}

// resolveTO raises the frontier to f, every TO-lane entry at or below which
// is resolved, and drops the applied entries it now covers.
func (sh *appliedState) resolveTO(f int64) {
	if f > sh.toFrontier {
		sh.toFrontier = f
		sh.liftTO()
	}
}

// openTOEpoch closes the recovered TO lane and starts the next epoch at an
// initial member's start: every ordinal of the older epochs counts as
// resolved, and the lease positions of the new group land past them.
func (sh *appliedState) openTOEpoch() {
	top := sh.toFrontier
	for _, o := range sh.toAbove {
		top = max(top, o)
	}
	sh.resolveTO(toEpochBase(top) + 1<<toEpochShift)
}

func (sh *appliedState) liftTO() {
	for len(sh.toAbove) > 0 {
		if i := slices.Index(sh.toAbove, sh.toFrontier+1); i >= 0 {
			sh.toFrontier++
			sh.toAbove = slices.Delete(sh.toAbove, i, i+1)
			continue
		}
		sh.toAbove = slices.DeleteFunc(sh.toAbove, func(o int64) bool { return o <= sh.toFrontier })
		return
	}
}

// seen reports whether a stale entry (resolved in its lane) is one the store
// demonstrably absorbed: at or below the eviction watermark, applied past the
// TO frontier, or still in the retained window. Newest first: duplicates are
// recent.
func (sh *appliedState) seen(e applyWSEntry) bool {
	if e.Ord > 0 {
		if e.Ord <= sh.evictedTO || slices.Contains(sh.toAbove, e.Ord) {
			return true
		}
	} else if e.TxnID.Seq <= sh.evicted[e.TxnID.Replica] {
		return true
	}
	for i := len(sh.ring) - 1; i >= 0; i-- {
		if sh.at(i).TxnID == e.TxnID {
			return true
		}
	}
	return false
}

// durable is the replica's durability + delta-transfer state over one WAL
// and snapshot file. The in-memory part is always active; the log/snapshot
// part only when a directory is configured.
type durable struct {
	cfg DurabilityConfig

	// applyMu is the store/frontier consistency barrier: every applier holds
	// it shared around {durability filter; store install}, the snapshot path
	// holds it exclusively around {store cut; frontier copy; log reset}, so a
	// snapshot never observes a logged frontier advance without its store
	// effect — or a log record it is about to truncate uncovered. Lock order:
	// applyMu before mu.
	applyMu sync.RWMutex

	mu      sync.Mutex
	applied appliedState

	log       *wal.Log
	sinceSnap int
	wantSnap  atomic.Bool

	// Counters (see WALStats).
	records        metrics.Counter
	appendedBytes  metrics.Counter
	fsyncLatency   metrics.Histogram
	snapshots      metrics.Counter
	lastSnapNanos  atomic.Int64
	recoveredSnap  bool
	replayRecords  int64
	replayEntries  int64
	replayDuration time.Duration
	deltasServed   metrics.Counter
	fullsServed    metrics.Counter
	deltaInstalled metrics.Counter
	fullInstalled  metrics.Counter
	declined       [numDeclineReasons]metrics.Counter
	lastDeltaBytes atomic.Int64
	lastFullBytes  atomic.Int64
	filteredSeen   metrics.Counter
	filteredNever  metrics.Counter
	errors         metrics.Counter
}

// newDurable builds the durability state and, when a directory is
// configured, recovers the store from snapshot + log before returning. The
// caller (NewReplica) runs this before the GCS endpoint exists, so recovery
// has the store to itself.
func newDurable(cfg DurabilityConfig, store *stm.Store) (*durable, error) {
	cfg.fillDefaults()
	d := &durable{cfg: cfg}
	d.applied.resetTo(nil)
	if cfg.Dir == "" {
		return d, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: durability dir: %w", err)
	}
	policy, err := wal.ParsePolicy(cfg.Fsync)
	if err != nil {
		return nil, err
	}
	validSize, err := d.recover(store)
	if err != nil {
		return nil, err
	}
	log, err := wal.OpenLog(wal.LogPath(cfg.Dir), validSize, wal.Options{
		Policy:   policy,
		Interval: cfg.FsyncInterval,
		OnFsync:  d.fsyncLatency.Observe,
	})
	if err != nil {
		return nil, err
	}
	d.log = log
	return d, nil
}

// recover rebuilds the store from the durability directory: restore the
// snapshot (if any), then replay the log suffix, filtering each record
// through the snapshot's frontier so records covered by the snapshot (a
// crash can land between snapshot write and log truncation) are not applied
// twice. It returns the log's valid-prefix size for OpenLog's torn-tail
// truncation. A snapshot that cannot be used invalidates the log too (its
// records build on an unreconstructable base): see discardState.
func (d *durable) recover(store *stm.Store) (int64, error) {
	start := time.Now()
	snapPayload, err := wal.ReadSnapshot(d.cfg.Dir)
	if err != nil {
		return 0, d.discardState(store) // the frame does not verify: corrupt
	}
	if snapPayload != nil {
		snap, front, toAbove, derr := readWALSnapshot(snapPayload)
		// An intact frame around a payload that does not decode was written
		// by an incompatible build (the gob-era, 0xA1 and 0xA2 formats
		// included).
		if derr != nil {
			return 0, d.discardState(store)
		}
		store.Restore(snap)
		d.applied.resetTo(front)
		d.applied.adoptTOAbove(toAbove)
		d.recoveredSnap = true
	}

	records, validSize, err := wal.Replay(wal.LogPath(d.cfg.Dir), func(payload []byte) error {
		entries, derr := readWALRecord(payload)
		if derr != nil {
			// An undecodable record despite an intact CRC is a codec/schema
			// problem, not tail damage. Treat conservatively as end-of-log:
			// the prefix stands, OpenLog truncates the rest.
			d.errors.Inc()
			return errStopReplay
		}
		// The apply path's own filter (no log is open yet, so append only
		// filters, advances the frontiers and refills the delta window) drops
		// what the snapshot covers.
		for _, e := range d.append(entries) {
			store.ApplyWriteSet(e.TxnID, e.WS)
			d.replayEntries++
		}
		return nil
	})
	if err != nil && err != errStopReplay {
		return 0, err
	}
	if snapPayload == nil && records > 0 {
		// With a snapshot, it says whether the store is complete. Without
		// one the log was never truncated (that only happens right after a
		// snapshot is durably in place), so it is an initial member's
		// complete history: safe to advertise.
		d.markComplete()
	}
	d.replayRecords = int64(records)
	d.replayDuration = time.Since(start)
	return validSize, nil
}

// discardState is recovery's one answer to a durability directory it cannot
// build on — a corrupt or undecodable snapshot: count the fault, wipe snapshot and log, drop whatever
// was recovered so far, and start stateless (nothing advertised, so the
// replica takes a full transfer on join).
func (d *durable) discardState(store *stm.Store) error {
	d.errors.Inc()
	if err := wal.RemoveSnapshot(d.cfg.Dir); err != nil {
		return fmt.Errorf("core: discard unusable snapshot: %w", err)
	}
	if err := os.Remove(wal.LogPath(d.cfg.Dir)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("core: discard orphaned wal: %w", err)
	}
	store.Restore(stm.StoreSnapshot{})
	d.applied.resetTo(nil)
	d.recoveredSnap, d.replayEntries = false, 0
	return nil
}

var errStopReplay = fmt.Errorf("core: stop wal replay")

// markComplete records that the store content is complete and matches the
// frontier (initial member at birth, or full install).
func (d *durable) markComplete() {
	d.mu.Lock()
	d.applied.hasState = true
	d.mu.Unlock()
}

// pushRetainedLocked adds one applied entry to the delta window; a full
// window gives up its oldest entry to the eviction watermarks and takes the
// new one in its slot. Caller holds d.mu.
func (d *durable) pushRetainedLocked(e applyWSEntry) {
	sh := &d.applied
	if len(sh.ring) < d.cfg.Retain {
		sh.ring = append(sh.ring, e)
		return
	}
	old := sh.at(0)
	if old.Ord > 0 {
		if old.Ord > sh.evictedTO {
			sh.evictedTO = old.Ord
		}
	} else if old.TxnID.Seq > sh.evicted[old.TxnID.Replica] {
		sh.evicted[old.TxnID.Replica] = old.TxnID.Seq
	}
	*old = e
	sh.head = (sh.head + 1) % len(sh.ring)
}

// append is the durability tier's entry on the apply path, called BEFORE the
// write-sets are installed in the store, under applyMu (shared); recovery
// replays the log through it too, before any log is open. It filters out
// entries the store already absorbed — URB-lane entries (Ord == 0) at or
// below the writer's frontier, TO-lane entries (Ord > 0) at or below the TO
// frontier or applied past it — the idempotence point that makes delta
// installs safe when the advertised frontier went stale. Survivors advance their lane's frontier,
// enter the delta window, and are logged; the caller must apply exactly the
// returned slice to the store. A TO-lane entry deliberately does NOT touch
// the writer's URB frontier: TO delivery does not respect URB sequence
// order, so advancing it would make receivers drop the writer's own earlier
// URB messages still in flight.
//
// Filtering and frontier advance happen under one lock acquisition; every
// append+apply runs on the dispatcher, one after another in delivery order,
// so log order is store order.
func (d *durable) append(entries []applyWSEntry) []applyWSEntry {
	d.mu.Lock()
	sh := &d.applied
	fresh := entries
	for i, e := range entries {
		var stale bool
		if e.Ord > 0 {
			stale = sh.absorbedTO(e.Ord)
		} else {
			stale = e.TxnID.Seq <= sh.frontier[e.TxnID.Replica]
		}
		if stale {
			// Rare path: classifying and copy-on-first-skip only here keeps
			// the common all-fresh case scan- and allocation-free.
			if sh.seen(e) {
				d.filteredSeen.Inc()
			} else {
				d.filteredNever.Inc()
			}
			if len(fresh) == len(entries) {
				fresh = append([]applyWSEntry(nil), entries[:i]...)
			}
			continue
		}
		if len(fresh) != len(entries) {
			fresh = append(fresh, e)
		}
		if e.Ord > 0 {
			sh.applyTO(e.Ord)
		} else {
			sh.frontier[e.TxnID.Replica] = e.TxnID.Seq
		}
		d.pushRetainedLocked(e)
	}
	// The handle is captured under mu: disableLog (another appender's write
	// failure) nils d.log concurrently, and a degraded log must cost this
	// appender an error from the closed handle, not a nil dereference.
	var log *wal.Log
	if len(fresh) > 0 {
		log = d.log
	}
	if log != nil {
		d.sinceSnap += len(fresh)
		if d.cfg.SnapshotEvery > 0 && d.sinceSnap >= d.cfg.SnapshotEvery {
			d.wantSnap.Store(true)
		}
	}
	d.mu.Unlock()

	if log != nil {
		// Encoded straight into the log's reused frame: one copy, no
		// allocation.
		n, err := log.AppendEncoded(func(b []byte) ([]byte, error) { return appendWALRecord(b, fresh) })
		if err != nil {
			// Unencodable values (box types never passed to RegisterValue)
			// or a failed write: degrade to memory-only rather than blocking
			// commits.
			d.errors.Inc()
			d.disableLog()
		} else {
			d.records.Inc()
			d.appendedBytes.Add(int64(n))
		}
	}
	return fresh
}

// disableLog turns persistence off after an unrecoverable write/encode
// failure; the replica keeps serving from memory.
func (d *durable) disableLog() {
	d.mu.Lock()
	log := d.log
	d.log = nil
	d.mu.Unlock()
	if log != nil {
		_ = log.Close()
	}
}

// maybeSnapshot takes the periodic durable snapshot when the log has grown
// past the configured threshold. The exclusive applyMu acquisition inside
// snapshot excludes every applier, so the store cut and the frontier copy
// describe exactly the same state.
func (d *durable) maybeSnapshot(store *stm.Store) {
	if !d.wantSnap.CompareAndSwap(true, false) {
		return
	}
	d.snapshot(store)
}

// snapshot durably writes the store image + applied frontier, then
// truncates the log. The whole {cut; write; reset} runs under applyMu held
// exclusively: appenders write the log inside their shared acquisition, so
// nothing can slip a record between the frontier copy and the truncation
// and be lost to both. Crash windows: before the rename, the old
// snapshot+log still recover; between rename and truncation, replay filters
// the (now covered) log records through the new frontiers.
func (d *durable) snapshot(store *stm.Store) {
	d.applyMu.Lock()
	d.mu.Lock()
	log := d.log
	front, toAbove := d.applied.advertised(), slices.Clone(d.applied.toAbove)
	d.mu.Unlock()
	if log == nil {
		d.applyMu.Unlock()
		return
	}
	payload, err := appendWALSnapshot(nil, store.Snapshot(), front, toAbove)
	if err == nil {
		err = wal.WriteSnapshot(d.cfg.Dir, payload)
	}
	if err != nil {
		d.applyMu.Unlock()
		d.errors.Inc()
		return
	}
	err = log.Reset()
	d.applyMu.Unlock()
	if err != nil {
		d.errors.Inc()
		d.disableLog()
		return
	}
	d.mu.Lock()
	d.sinceSnap = 0
	d.mu.Unlock()
	d.snapshots.Inc()
	d.lastSnapNanos.Store(time.Now().UnixNano())
}

// advertise returns the advertised frontier for the next joinReq.
func (d *durable) advertise() map[transport.ID]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.applied.advertised()
}

// cut returns the advertised frontier with the TO lane's applied entries past
// it: together, exactly what the store has absorbed (a full state transfer's
// baseline).
func (d *durable) cut() (map[transport.ID]uint64, []int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.applied.advertised(), slices.Clone(d.applied.toAbove)
}

// openTOEpoch starts a new TO-lane epoch (see appliedState.openTOEpoch). An
// ALC initial member calls it once, before its endpoint starts.
func (d *durable) openTOEpoch() {
	d.mu.Lock()
	d.applied.openTOEpoch()
	d.mu.Unlock()
}

// toClock is CERT's totally ordered commit clock: the TO frontier. CERT's TO
// lane has no gaps, so the frontier is the ordinal of the last valid
// certification applied.
func (d *durable) toClock() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.applied.toFrontier
}

// payloadOrd is the TO-lane ordinal of the §4.5(c) payload whose lease
// request was TO-delivered at position pos of the current epoch.
func (d *durable) payloadOrd(pos uint64) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return toEpochBase(d.applied.toFrontier) + int64(pos)
}

// resolvePayloads raises the TO frontier to lease position pos of the current
// epoch: every payload at or below it is resolved (lease.Manager.ResolvedTO).
func (d *durable) resolvePayloads(pos uint64) {
	d.mu.Lock()
	sh := &d.applied
	sh.resolveTO(toEpochBase(sh.toFrontier) + int64(pos))
	d.mu.Unlock()
}

// delta computes the entry suffix a joiner at frontier f is missing, oldest
// first. Any reason other than deltaServed demands a full transfer, and is
// counted: the joiner's TO lane is from another epoch (its payload ordinals
// name other transactions), it claims progress this replica cannot verify (f
// ahead of our frontiers — incomparable histories), or the gap reaches
// entries already evicted from the retained window.
func (d *durable) delta(f map[transport.ID]uint64) ([]applyWSEntry, declineReason) {
	d.mu.Lock()
	defer d.mu.Unlock()
	out, why := d.deltaLocked(f)
	if why != deltaServed {
		d.declined[why].Inc()
	}
	return out, why
}

func (d *durable) deltaLocked(f map[transport.ID]uint64) ([]applyWSEntry, declineReason) {
	sh := &d.applied
	fTO := int64(f[transport.Nobody])
	if toEpochBase(fTO) != toEpochBase(sh.toFrontier) {
		return nil, declineEpoch
	}
	if fTO > sh.toFrontier {
		return nil, declineAhead
	}
	for w, seq := range f {
		if w != transport.Nobody && seq > sh.frontier[w] {
			return nil, declineAhead
		}
	}
	if sh.evictedTO > fTO {
		return nil, declineEvicted
	}
	for w, ev := range sh.evicted {
		if ev > f[w] {
			// Entries from w beyond the joiner's frontier were dropped from
			// the window: the suffix is incomplete.
			return nil, declineEvicted
		}
	}
	var out []applyWSEntry
	for i := range sh.ring {
		e := sh.at(i)
		if e.Ord > 0 {
			if e.Ord > fTO {
				out = append(out, *e)
			}
		} else if e.TxnID.Seq > f[e.TxnID.Replica] {
			out = append(out, *e)
		}
	}
	return out, deltaServed
}

// installFull resets the durability state around a full state transfer:
// the transferred state IS the new baseline, so the delta window restarts
// empty at the transferred frontier and, when persistence is on, a fresh
// durable snapshot replaces whatever the directory held (without it, a crash
// would recover pre-transfer state and replay post-transfer records on top
// of it). Runs on the dispatcher with applies drained (InstallState), after
// the store install.
func (d *durable) installFull(f map[transport.ID]uint64, toAbove []int64, store *stm.Store) {
	d.mu.Lock()
	d.applied.resetTo(f)
	d.applied.adoptTOAbove(toAbove)
	d.sinceSnap = 0
	hasLog := d.log != nil
	d.mu.Unlock()
	d.fullInstalled.Inc()
	if hasLog {
		d.snapshot(store)
	}
}

// close flushes and closes the log (final fsync under always/interval). The
// caller guarantees no applier is running or can start (Replica.Close stops
// the dispatcher first), so nothing appends to the closed handle.
func (d *durable) close() {
	d.mu.Lock()
	log := d.log
	d.log = nil
	d.mu.Unlock()
	if log != nil {
		_ = log.Close()
	}
}

// stats assembles the WALStats snapshot.
func (d *durable) stats() WALStats {
	d.mu.Lock()
	enabled := d.cfg.Dir != ""
	retained := int64(len(d.applied.ring))
	d.mu.Unlock()
	return WALStats{
		Enabled:               enabled,
		Records:               d.records.Value(),
		AppendedBytes:         d.appendedBytes.Value(),
		FsyncLatency:          d.fsyncLatency.Snapshot(),
		Snapshots:             d.snapshots.Value(),
		LastSnapshotUnixNano:  d.lastSnapNanos.Load(),
		RecoveredFromSnapshot: d.recoveredSnap,
		ReplayedRecords:       d.replayRecords,
		ReplayedEntries:       d.replayEntries,
		ReplayDuration:        d.replayDuration,
		DeltasServed:          d.deltasServed.Value(),
		FullsServed:           d.fullsServed.Value(),
		DeltaInstalled:        d.deltaInstalled.Value(),
		FullInstalled:         d.fullInstalled.Value(),
		DeltaDeclined: DeltaDeclines{
			Ahead:   d.declined[declineAhead].Value(),
			Epoch:   d.declined[declineEpoch].Value(),
			Evicted: d.declined[declineEvicted].Value(),
		},
		LastDeltaBytes:    d.lastDeltaBytes.Load(),
		LastFullBytes:     d.lastFullBytes.Load(),
		RetainedEntries:   retained,
		FilteredSeen:      d.filteredSeen.Value(),
		FilteredNeverSeen: d.filteredNever.Value(),
		Errors:            d.errors.Value(),
	}
}
