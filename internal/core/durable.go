package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/metrics"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/transport"
	"github.com/alcstm/alc/internal/wal"
	"github.com/alcstm/alc/internal/wire"
)

// DurabilityConfig enables the per-replica durability tier: a write-ahead
// log of applied write-set batches that a periodic store snapshot rewrites
// to one base record, giving a restarted replica a local base to recover
// from so it can rejoin via a delta state transfer instead of pulling the
// full store.
type DurabilityConfig struct {
	// Dir is the replica's durability directory, which holds the log
	// (wal.Open) and nothing else. Empty disables persistence; the in-memory
	// delta-transfer bookkeeping (applied frontier + retained entry ring)
	// stays on regardless, so a memory-only replica can still *serve* deltas
	// to durable peers.
	Dir string
	// Fsync selects the log's fsync policy: "always", "interval" (default)
	// or "off". See wal.Policy.
	Fsync string
	// FsyncInterval is the "interval" policy's period. Default 5ms.
	FsyncInterval time.Duration
	// SnapshotEvery rewrites the log to a store snapshot, its base record,
	// after this many logged write-sets. Default 4096; negative disables
	// periodic snapshots (the log then grows until Close).
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
	// SnapshotLatency times durable snapshot attempts — store cut, encoding
	// and the log's rewrite to the new base record, with its fsyncs. Periodic
	// and full-install snapshots run on the GCS dispatcher, which delivers
	// nothing meanwhile.
	SnapshotLatency metrics.HistogramSnapshot
	// Degraded reports that a log write or encode failure turned
	// persistence off: the replica runs memory-only from then on.
	Degraded bool
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
	// RetainedBytes is the delta window's footprint: the byte segments that
	// hold its entries' wire encodings (gauge).
	RetainedBytes int64
	// RetainUnencodable counts applied entries the delta window could not
	// keep because a value has no codec (a type never registered with
	// wire.Register). Each counted as evicted at once: a joiner that lacks
	// one takes a full transfer.
	RetainUnencodable int64
	// FilteredSeen / FilteredNeverSeen count entries the apply path's
	// frontier filter dropped as already absorbed. Seen: the entry is still
	// in the retained window or at/below its eviction watermark — a
	// genuine duplicate (a delta install over a stale advertised frontier).
	// NeverSeen: at/below the frontier yet in neither — an entry overtaken by
	// a later one from its writer, i.e. an acknowledged commit being lost;
	// must stay 0.
	FilteredSeen      int64
	FilteredNeverSeen int64
	// Transfers is the bounded record of this replica's state-transfer
	// decisions, oldest first: the last maxTransfers it served as view-change
	// coordinator or installed as a joiner.
	Transfers []Transfer
	// Errors counts durability faults: encode/write/snapshot failures (the
	// replica degrades to memory-only operation rather than stopping) and
	// recovery discarding a log record it cannot decode and the rest of the
	// log after it.
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

func (r declineReason) String() string {
	return [numDeclineReasons]string{"", "ahead", "epoch", "evicted"}[r]
}

// Kinds of state transfer (Transfer.Kind).
const (
	TransferDelta = "delta"
	TransferFull  = "full"
)

// maxTransfers bounds WALStats.Transfers.
const maxTransfers = 32

// Transfer is one state-transfer decision: one this replica served, as the
// coordinator of the view that admitted a joiner, or one it installed as
// that joiner.
type Transfer struct {
	// View is the view the joiner entered with the transfer.
	View uint64 `json:"view"`
	// Joiner is the replica the transfer was for: this one when installed.
	Joiner transport.ID `json:"joiner"`
	// Served says this replica coordinated the transfer; false, that it
	// installed it.
	Served bool `json:"served"`
	// Kind is TransferDelta or TransferFull.
	Kind string `json:"kind"`
	// Frontier is the applied frontier the joiner advertised, nil for none.
	// On the joiner it is the frontier of its latest join request. A delta
	// means the coordinator found it inside its retained window.
	Frontier map[transport.ID]uint64 `json:"frontier"`
	// Declined names the rule that refused a delta for an advertised
	// frontier ("ahead", "epoch" or "evicted"; see DeltaDeclines). Only the
	// coordinator knows it; empty otherwise.
	Declined string `json:"declined,omitempty"`
}

// A WAL payload is a format byte ahead of fields in the wire codec (the same
// helpers that put write-sets and store snapshots on the network, so one
// fuzzed decoder guards disk and network):
//
//	entry record: walRecordFormat · appendWSEntries — one applied batch in
//	              apply order
//	base record:  walBaseFormat · appendStoreSnapshot · gcs.AppendVector, in
//	              advertised() form · appendOrds, the TO lane's applied
//	              entries past its frontier
//
// The base record, the store cut every later record builds on, is only ever
// the log's first (wal.Log.Rewrite). Neither byte is one an encoding/gob
// stream can begin with (its leading length byte is 0x00-0x7F or
// 0xF8-0xFF), so a directory written by the gob-era build fails decoding at
// byte 0; take new values for any incompatible layout change. Retired: 0xA1,
// the layout with a shard-group number on every record and a frontier per
// shard group in the snapshot; 0xA2, the snapshot without the TO lane's
// applied entries past its frontier; 0xA3, the layout whose box values of
// application types were gob blobs under the retired wire tag 0x0F; 0xA4,
// the layout with the snapshot in a file of its own beside the log.
const (
	walRecordFormat byte = 0xA5
	walBaseFormat   byte = 0xA6
)

func readWALRecord(payload []byte) ([]applyWSEntry, error) {
	r := walReader(payload, walRecordFormat)
	entries, err := readWSEntries(r)
	return entries, walPayloadEnd(r, err)
}

func appendWALBase(b []byte, store stm.StoreSnapshot, front map[transport.ID]uint64, toAbove []int64) ([]byte, error) {
	b, err := appendStoreSnapshot(append(b, walBaseFormat), store)
	if err != nil {
		return b, err
	}
	return appendOrds(gcs.AppendVector(b, front), toAbove), nil
}

func readWALBase(payload []byte) (stm.StoreSnapshot, map[transport.ID]uint64, []int64, error) {
	r := walReader(payload, walBaseFormat)
	store, err := readStoreSnapshot(r)
	if err != nil {
		return store, nil, nil, err
	}
	front := gcs.ReadVector(r)
	toAbove := readOrds(r)
	return store, front, toAbove, walPayloadEnd(r, nil)
}

// walReader returns a copying reader (decoded values outlive the replay
// buffer) over the payload past its format byte — over nothing when the
// format is not the one expected, so the decoder's first read fails.
func walReader(payload []byte, format byte) *wire.Reader {
	r := wire.NewReader(payload)
	if r.Byte() != format {
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
	// win is the retained suffix of applied entries, capped at cfg.Retain,
	// in wire encoding. evicted[w] / evictedTO are the highest URB Seq per
	// writer / TO ordinal dropped from the window, or never let into it for a
	// value with no codec (a joiner needing anything at or below them that it
	// does not already have must take a full transfer).
	win       deltaWindow
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
// and what a base record holds.
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

// evict raises the eviction watermark of the entry's lane past it.
func (sh *appliedState) evict(id stm.TxnID, ord int64) {
	if ord > 0 {
		sh.evictedTO = max(sh.evictedTO, ord)
	} else if id.Seq > sh.evicted[id.Replica] {
		sh.evicted[id.Replica] = id.Seq
	}
}

// adoptTOAbove takes the TO lane's applied entries past the frontier from a
// base record or a full transfer. They are absorbed but not in the delta
// window, so the eviction watermark rises past them: a joiner that may lack
// one needs a full transfer.
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
	for i := sh.win.len() - 1; i >= 0; i-- {
		if id, _ := sh.win.header(i); id == e.TxnID {
			return true
		}
	}
	return false
}

// durable is the replica's durability + delta-transfer state over one log
// file. The in-memory part is always active; the log only when a directory
// is configured.
//
// The GCS dispatcher owns it: install's filter and log append, the periodic
// snapshot, the state-transfer cuts, a full install and the join request's
// frontier (advertise) all run there, one after another in delivery order,
// so the store and the frontiers always agree between two of them. Recovery
// runs before the endpoint exists, and Seed before the first store install
// (Replica.sealSeed). mu guards only what other goroutines read: the delta
// window, whose size stats reports, and the transfer record. CERT
// committers read clock.
type durable struct {
	cfg DurabilityConfig

	mu      sync.Mutex
	applied appliedState

	// clock is CERT's commit clock as a committer samples it: the TO
	// frontier as of the last completed store install (publishClock), so
	// every ordinal it names is already in the store.
	clock atomic.Int64

	log       *wal.Log
	sinceSnap int
	// rec is the reused WAL record buffer: walRecordFormat · count · entries.
	// append encodes each fresh entry into it once; the delta window copies
	// the entry's bytes out and the log writes the whole record.
	rec []byte

	// Counters (see WALStats).
	records        metrics.Counter
	appendedBytes  metrics.Counter
	fsyncLatency   metrics.Histogram
	snapshots      metrics.Counter
	snapLatency    metrics.Histogram
	lastSnapNanos  atomic.Int64
	degraded       atomic.Bool
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
	unencodable    metrics.Counter
	errors         metrics.Counter

	// transfers is WALStats.Transfers, under mu; joinFrontier the frontier
	// of this replica's latest join request.
	transfers    []Transfer
	joinFrontier map[transport.ID]uint64
}

// newDurable builds the durability state and, when a directory is
// configured, recovers the store from its log before returning. The caller
// (NewReplica) runs this before the GCS endpoint exists, so recovery has the
// store to itself.
func newDurable(cfg DurabilityConfig, store *stm.Store) (*durable, error) {
	cfg.fillDefaults()
	d := &durable{cfg: cfg}
	d.applied.resetTo(nil)
	if cfg.Dir == "" {
		return d, nil
	}
	policy, err := wal.ParsePolicy(cfg.Fsync)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	log, err := wal.Open(cfg.Dir, wal.Options{
		Policy:   policy,
		Interval: cfg.FsyncInterval,
		OnFsync:  d.fsyncLatency.Observe,
	}, func(payload []byte) error { return d.replay(store, payload) })
	if err != nil {
		return nil, err
	}
	if !d.recoveredSnap && d.replayRecords > 0 {
		// With a base record, its frontier says whether the store is
		// complete. A log without one was never rewritten, so it is an
		// initial member's complete history: safe to advertise.
		d.markComplete()
	}
	d.replayDuration = time.Since(start)
	d.log = log
	return d, nil
}

// replay is recovery's step for one intact log record. The log's first
// record may be its base: it restores the store cut and the frontiers.
// Every other record is an entry record, run through the apply path's own
// filter (no log is open yet, so append only filters, advances the
// frontiers and refills the delta window) into the store. A record that
// does not decode — written by an incompatible build (the gob-era and
// 0xA1-0xA4 formats included) or damaged behind an intact CRC — is counted,
// and its error ends the log there: wal.Open truncates the rest. When it is
// the first record, nothing was recovered, so the replica starts stateless,
// advertises nothing and rejoins by full transfer.
func (d *durable) replay(store *stm.Store, payload []byte) error {
	if !d.recoveredSnap && d.replayRecords == 0 && len(payload) > 0 && payload[0] == walBaseFormat {
		snap, front, toAbove, err := readWALBase(payload)
		if err != nil {
			d.errors.Inc()
			return err
		}
		store.Restore(snap)
		d.applied.resetTo(front)
		d.applied.adoptTOAbove(toAbove)
		d.recoveredSnap = true
		return nil
	}
	entries, err := readWALRecord(payload)
	if err != nil {
		d.errors.Inc()
		return err
	}
	for _, e := range d.append(entries) {
		store.ApplyWriteSet(e.TxnID, e.WS)
		d.replayEntries++
	}
	d.replayRecords++
	return nil
}

// markComplete records that the store content is complete and matches the
// frontier (initial member at birth, or full install).
func (d *durable) markComplete() {
	d.applied.hasState = true
}

// recordHeader is the room append reserves at the front of d.rec for
// walRecordFormat and the entry count, which is known only once the entries
// are filtered (see logRecord).
const recordHeader = 1 + binary.MaxVarintLen64

// pushRetainedLocked encodes one applied entry onto the WAL record being
// built in d.rec (with no log open, nothing is recorded and the buffer only
// carries the entry) and adds a copy of its bytes to the delta window; a
// full window gives up its oldest entry to the eviction watermarks. An entry
// with a value that has no codec cannot be retained: it counts as evicted at
// once, so a joiner that lacks it takes a full transfer, never a delta with
// a hole, and false says the record is incomplete. Caller holds d.mu.
func (d *durable) pushRetainedLocked(e applyWSEntry) bool {
	sh := &d.applied
	at := len(d.rec)
	if d.log == nil {
		at = 0
	}
	rec, err := appendWSEntry(d.rec[:at], e)
	if err != nil {
		d.rec = rec[:at]
		d.unencodable.Inc()
		sh.evict(e.TxnID, e.Ord)
		return false
	}
	d.rec = rec
	if sh.win.len() == d.cfg.Retain {
		sh.evict(sh.win.header(0))
	}
	sh.win.push(rec[at:], d.cfg.Retain)
	return true
}

// append is the durability tier's entry on the apply path, called BEFORE the
// write-sets are installed in the store; recovery replays the log through it
// too, before any log is open. It filters out entries the store already
// absorbed — URB-lane entries (Ord == 0) at or below the writer's frontier,
// TO-lane entries (Ord > 0) at or below the TO frontier or applied past it —
// the idempotence point that makes delta installs safe when the advertised
// frontier went stale. Survivors advance their lane's frontier and are
// encoded once, into the WAL record, whose bytes the delta window keeps; the
// caller must apply exactly the returned slice to the store. A TO-lane entry
// deliberately does NOT touch the writer's URB frontier: TO delivery does not
// respect URB sequence order, so advancing it would make receivers drop the
// writer's own earlier URB messages still in flight.
//
// Every append+apply runs on the dispatcher, one after another in delivery
// order, so log order is store order.
func (d *durable) append(entries []applyWSEntry) []applyWSEntry {
	if d.log != nil {
		d.rec = append(d.rec[:0], make([]byte, recordHeader)...)
	}
	encoded := true
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
		encoded = d.pushRetainedLocked(e) && encoded
	}
	d.mu.Unlock()
	if d.log != nil && len(fresh) > 0 {
		d.logRecord(len(fresh), encoded)
	}
	if cap(d.rec) > maxBatchBytes {
		d.rec = nil // one oversized batch must not pin its buffer
	}
	return fresh
}

// logRecord finishes the record of the n entries append built in d.rec —
// walRecordFormat and n go at the end of the reserved header, right before
// the entries — and appends it to the log. A value with no codec (a box type
// never registered with wire.Register) left the record incomplete; that, or
// a failed write, degrades the replica to memory-only rather than blocking
// commits.
func (d *durable) logRecord(n int, encoded bool) {
	d.sinceSnap += n
	var count [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(count[:], uint64(n))
	start := recordHeader - 1 - k
	d.rec[start] = walRecordFormat
	copy(d.rec[start+1:], count[:k])
	size, err := 0, errNoCodec
	if encoded {
		size, err = d.log.Append(d.rec[start:])
	}
	if err != nil {
		d.errors.Inc()
		d.disableLog()
		return
	}
	d.records.Inc()
	d.appendedBytes.Add(int64(size))
}

var errNoCodec = errors.New("core: wal record holds a value with no codec")

// disableLog turns persistence off after an unrecoverable write/encode
// failure; the replica keeps serving from memory.
func (d *durable) disableLog() {
	_ = d.log.Close()
	d.log = nil
	d.degraded.Store(true)
}

// publishClock publishes the TO frontier as CERT's commit clock (clock).
// Called once the store holds every entry the frontier counts: after each
// store install and state transfer, and at start.
func (d *durable) publishClock() {
	d.clock.Store(d.applied.toFrontier)
}

// maybeSnapshot takes the periodic durable snapshot, right after a store
// install, when the log has grown past the configured threshold.
func (d *durable) maybeSnapshot(store *stm.Store) {
	if d.sinceSnap >= d.cfg.SnapshotEvery && d.cfg.SnapshotEvery > 0 && d.snapshot(store) {
		d.sinceSnap = 0
	}
}

// snapshot persists the store cut — image, applied frontier and the TO
// lane's entries past it — as the log's new base record, which replaces
// every record logged so far (wal.Log.Rewrite), and reports whether it did.
// It runs where nothing installs meanwhile (see durable), so the cut and the
// frontier describe the same state. A failure degrades the replica to
// memory-only: after a full install or a Seed, the log no longer holds the
// state the replica runs.
func (d *durable) snapshot(store *stm.Store) bool {
	if d.log == nil {
		return false
	}
	start := time.Now()
	defer func() { d.snapLatency.Observe(time.Since(start)) }()
	base, err := appendWALBase(nil, store.Snapshot(), d.applied.advertised(), d.applied.toAbove)
	if err == nil {
		err = d.log.Rewrite(base)
	}
	if err != nil {
		d.errors.Inc()
		d.disableLog()
		return false
	}
	d.snapshots.Inc()
	d.lastSnapNanos.Store(time.Now().UnixNano())
	return true
}

// advertise returns the advertised frontier for the next joinReq, and keeps
// it for the record of the transfer that answers the request. Nobody writes
// the map.
func (d *durable) advertise() map[transport.ID]uint64 {
	d.joinFrontier = d.applied.advertised()
	return d.joinFrontier
}

// recordTransfer appends a decision to the bounded transfer record. An
// installed transfer takes the frontier of the latest join request; its view
// is stamped by the view change that follows the install (stampInstall).
func (d *durable) recordTransfer(t Transfer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !t.Served {
		t.Frontier = d.joinFrontier
	}
	if len(d.transfers) == maxTransfers {
		d.transfers = slices.Delete(d.transfers, 0, 1)
	}
	d.transfers = append(d.transfers, t)
}

// stampInstall gives the latest installed transfer, if it has no view yet,
// the view it admitted this replica to.
func (d *durable) stampInstall(view uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.transfers); n > 0 && !d.transfers[n-1].Served && d.transfers[n-1].View == 0 {
		d.transfers[n-1].View = view
	}
}

// cut returns the advertised frontier with the TO lane's applied entries past
// it: together, exactly what the store has absorbed (a full state transfer's
// baseline).
func (d *durable) cut() (map[transport.ID]uint64, []int64) {
	return d.applied.advertised(), slices.Clone(d.applied.toAbove)
}

// toClock is CERT's totally ordered commit clock on the dispatcher: the TO
// frontier. CERT's TO lane has no gaps, so the frontier is the ordinal of the
// last valid certification applied. Committers sample clock instead.
func (d *durable) toClock() int64 {
	return d.applied.toFrontier
}

// payloadOrd is the TO-lane ordinal of the §4.5(c) payload whose lease
// request was TO-delivered at position pos of the current epoch.
func (d *durable) payloadOrd(pos uint64) int64 {
	return toEpochBase(d.applied.toFrontier) + int64(pos)
}

// resolvePayloads raises the TO frontier to lease position pos of the current
// epoch: every payload at or below it is resolved (lease.Manager.ResolvedTO).
func (d *durable) resolvePayloads(pos uint64) {
	sh := &d.applied
	sh.resolveTO(toEpochBase(sh.toFrontier) + int64(pos))
}

// delta computes the entry suffix a joiner at frontier f is missing, oldest
// first. Any reason other than deltaServed demands a full transfer, and is
// counted: the joiner's TO lane is from another epoch (its payload ordinals
// name other transactions), it claims progress this replica cannot verify (f
// ahead of our frontiers — incomparable histories), or the gap reaches
// entries already evicted from the retained window.
func (d *durable) delta(f map[transport.ID]uint64) (_ []applyWSEntry, why declineReason) {
	defer func() {
		if why != deltaServed {
			d.declined[why].Inc()
		}
	}()
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
	for i := range sh.win.len() {
		if id, ord := sh.win.header(i); ord > 0 && ord <= fTO || ord == 0 && id.Seq <= f[id.Replica] {
			continue
		}
		e, err := sh.win.entry(i)
		if err != nil {
			// The window encoded it; a decode failure leaves a hole, which
			// only a full transfer can cover.
			return nil, declineEvicted
		}
		out = append(out, e)
	}
	return out, deltaServed
}

// installFull resets the durability state around a full state transfer:
// the transferred state IS the new baseline, so the delta window restarts
// empty at the transferred frontier and, when persistence is on, the log is
// rewritten to the installed cut as its base record (without it, a crash
// would recover pre-transfer state and replay post-transfer records on top
// of it). Runs on the dispatcher (InstallState), after the store install.
func (d *durable) installFull(f map[transport.ID]uint64, toAbove []int64, store *stm.Store) {
	d.mu.Lock()
	d.applied.resetTo(f)
	d.mu.Unlock()
	d.applied.adoptTOAbove(toAbove)
	d.sinceSnap = 0
	d.fullInstalled.Inc()
	d.snapshot(store)
}

// close flushes and closes the log (final fsync under always/interval). The
// caller guarantees no applier is running or can start (Replica.Close stops
// the dispatcher first), so nothing appends to the closed handle.
func (d *durable) close() {
	if d.log != nil {
		_ = d.log.Close()
		d.log = nil
	}
}

// stats assembles the WALStats snapshot.
func (d *durable) stats() WALStats {
	d.mu.Lock()
	enabled := d.cfg.Dir != ""
	retained, retainedBytes := int64(d.applied.win.len()), d.applied.win.bytes()
	transfers := slices.Clone(d.transfers)
	d.mu.Unlock()
	return WALStats{
		Enabled:               enabled,
		Records:               d.records.Value(),
		AppendedBytes:         d.appendedBytes.Value(),
		FsyncLatency:          d.fsyncLatency.Snapshot(),
		Snapshots:             d.snapshots.Value(),
		LastSnapshotUnixNano:  d.lastSnapNanos.Load(),
		SnapshotLatency:       d.snapLatency.Snapshot(),
		Degraded:              d.degraded.Load(),
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
		RetainedBytes:     retainedBytes,
		RetainUnencodable: d.unencodable.Value(),
		FilteredSeen:      d.filteredSeen.Value(),
		FilteredNeverSeen: d.filteredNever.Value(),
		Transfers:         transfers,
		Errors:            d.errors.Value(),
	}
}
