package core

import (
	"fmt"
	"time"

	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/trace"
	"github.com/alcstm/alc/internal/transport"
	"github.com/alcstm/alc/internal/wire"
)

// shardHandler adapts one shard group of a Replica to the gcs.Handler
// interface without exposing the upcall methods on the Replica's public API.
// All methods run on that shard's GCS dispatcher goroutine, sequentially, in
// the group's delivery order; different shards' handlers run concurrently,
// which is safe because conflict classes (and therefore boxes) partition
// exactly by shard.
type shardHandler struct {
	r *Replica
	s *shardState
}

var _ gcs.Handler = (*shardHandler)(nil)

// OnOptDeliver feeds optimistically delivered lease requests to the shard's
// lease manager (§4.5 optimization (b): early lease freeing).
func (h *shardHandler) OnOptDeliver(from transport.ID, body any) {
	if req, ok := body.(*lease.Request); ok {
		h.s.lm.HandleRequestOpt(req)
	}
}

// OnTODeliver routes totally ordered messages: lease requests to the shard's
// lease manager, certification messages to the CERT validator. Lease handling
// reads the store (piggybacked certification, lease handover), so the shard's
// apply lane is drained first: everything this group delivered earlier is
// fully applied.
func (h *shardHandler) OnTODeliver(from transport.ID, body any) {
	r, s := h.r, h.s
	switch m := body.(type) {
	case *lease.Request:
		r.sched.drain(s.idx)
		s.lm.HandleRequestTO(m)
	case *certMsg:
		r.certApply(s, m)
	}
	r.maybeDurableSnapshot()
}

// OnURDeliver routes causally ordered messages: write-set applications and
// lease releases.
func (h *shardHandler) OnURDeliver(from transport.ID, body any) {
	r, s := h.r, h.s
	switch m := body.(type) {
	case *applyWSMsg:
		r.enqueueApply(s, from, []applyWSEntry{{TxnID: m.TxnID, LeaseID: m.LeaseID, WS: m.WS}}, false)
	case *applyWSBatchMsg:
		r.enqueueApply(s, from, m.Entries, true)
	case *lease.Freed:
		// A lease may only move to its next holder after every write-set
		// it covered is applied: drain this shard before the release.
		r.sched.drain(s.idx)
		s.lm.HandleFreed(m)
	}
	r.maybeDurableSnapshot()
}

// maybeDurableSnapshot runs the periodic durable snapshot. Store/frontier
// consistency comes from the durability tier's apply barrier (dur.applyMu):
// the snapshot excludes every in-flight applier on every shard, so the store
// content and the per-shard applied frontiers describe exactly the same
// state — the invariant the snapshot file encodes.
func (r *Replica) maybeDurableSnapshot() {
	if !r.dur.wantSnap.Load() {
		return
	}
	r.dur.maybeSnapshot(r.store)
}

// OnViewChange installs the shard group's new membership.
func (h *shardHandler) OnViewChange(v gcs.View) {
	r, s := h.r, h.s
	r.sched.drain(s.idx)
	r.viewMu.Lock()
	s.view = v
	r.viewCond.Broadcast()
	r.viewMu.Unlock()
	s.primary.Store(v.Primary)
	r.recomputePrimary()
	s.lm.HandleViewChange(v.Members, v.Rejoined)
	// The router's affinity map keys view transitions on a single monotonic
	// view ID; shard groups install views independently, so only shard 0
	// narrates membership (all groups share one member set).
	if t := r.cfg.Tracer; t != nil && s.idx == 0 {
		t.Emit(trace.Event{Replica: r.id, Kind: trace.KindView,
			Msg: fmt.Sprintf("view %d members=%v rejoined=%v primary=%t",
				v.ID, v.Members, v.Rejoined, v.Primary),
			Payload: trace.ViewChange{
				ID: v.ID, Members: v.Members, Rejoined: v.Rejoined, Primary: v.Primary,
			}})
	}
}

// OnEjected fails every in-flight commit: only read-only transactions remain
// serviceable outside the primary component. Ejection from ANY shard group
// makes the whole replica non-primary (updates need all their home shards),
// so all shards' coalescers are failed, not just this one's.
func (h *shardHandler) OnEjected() {
	r, s := h.r, h.s
	s.primary.Store(false)
	r.primary.Store(false)
	r.sched.drain(s.idx)
	s.lm.HandleEjected()
	// Order matters: with primary already false, a committer that enqueues
	// after this fail is rejected by the coalescer itself, so no stale
	// write-set can linger and be broadcast after a rejoin.
	for _, sh := range r.shards {
		sh.coal.fail(ErrEjected)
	}
	r.failGroups()
	r.failAllWaiters(ErrEjected)
	// Clear reservations (their write-sets will never self-deliver) and
	// wake waiting committers so they observe the ejection.
	r.inflight.reset()
}

// StateSnapshot captures this shard group's application state for a joiner:
// the shard's slice of the STM heap, its lease table, its CERT window, and
// its applied frontier. The store cut is taken under the apply barrier, so
// it matches the frontier exactly.
func (h *shardHandler) StateSnapshot() any {
	r, s := h.r, h.s
	r.sched.drain(s.idx)
	r.dur.applyMu.Lock()
	snap := r.store.Snapshot()
	frontier := r.dur.advertise(s.idx)
	r.dur.applyMu.Unlock()
	if len(r.shards) > 1 {
		snap.Boxes = r.filterShardBoxes(snap.Boxes, s.idx)
	}
	st := &xferState{
		Store:    snap,
		Leases:   s.lm.SnapshotState(),
		CertLog:  s.certLog.snapshot(),
		Frontier: frontier,
	}
	r.dur.fullsServed.Inc()
	r.dur.lastFullBytes.Store(wireSize(st))
	return st
}

// wireSize measures a state transfer in the wire codec. Best-effort: without
// RegisterWire (in-memory transports never serialize) or with a box value
// that has no codec, the size is reported as 0, not an error.
func wireSize(st any) int64 {
	b, err := wire.AppendAny(nil, st)
	if err != nil {
		return 0
	}
	return int64(len(b))
}

// filterShardBoxes keeps only the boxes whose conflict class lives on the
// given shard (a full store snapshot spans every group's data).
func (r *Replica) filterShardBoxes(boxes []stm.BoxState, shard int) []stm.BoxState {
	out := boxes[:0]
	for _, b := range boxes {
		if r.shardOf(b.Box) == shard {
			out = append(out, b)
		}
	}
	return out
}

// StateDelta serves an incremental state transfer for a joiner that
// advertised applied frontier f on this shard: only the write-set entries
// past f, plus the (small) lease table and CERT window. ok=false when the
// joiner's gap outruns the retained delta window or its frontier is
// incomparable — the caller then falls back to StateSnapshot. Runs on the
// shard's GCS dispatcher (gcs.DeltaProvider).
func (h *shardHandler) StateDelta(f map[transport.ID]uint64) (any, bool) {
	r, s := h.r, h.s
	r.sched.drain(s.idx)
	entries, ok := r.dur.delta(s.idx, f)
	if !ok {
		return nil, false
	}
	st := &xferDelta{
		Entries: entries,
		Leases:  s.lm.SnapshotState(),
		CertLog: s.certLog.snapshot(),
	}
	r.dur.deltasServed.Inc()
	r.dur.lastDeltaBytes.Store(wireSize(st))
	return st, true
}

// InstallState adopts a transferred application state (joining replica, this
// shard group): either the shard's full snapshot or, when this replica
// advertised a usable applied frontier, just the missing write-set suffix
// applied on top of the locally recovered state.
func (h *shardHandler) InstallState(state any) {
	r, s := h.r, h.s
	switch st := state.(type) {
	case *xferState:
		r.sched.drain(s.idx)
		// Anything still queued locally predates the transferred state and is
		// void (the joiner's waiters were already failed at ejection).
		s.coal.fail(ErrEjected)
		r.inflight.reset()
		r.dur.applyMu.Lock()
		if len(r.shards) > 1 {
			// Only this shard's boxes travel in the snapshot: upsert them,
			// leaving the other groups' slices (installed by their own
			// transfers) untouched.
			r.store.RestorePartial(st.Store)
		} else {
			r.store.Restore(st.Store)
		}
		r.dur.applyMu.Unlock()
		s.lm.InstallState(st.Leases)
		s.certLog.restore(st.CertLog)
		s.toOrd.Store(toFrontierOf(st.Frontier))
		r.dur.installFull(s.idx, st.Frontier, r.store)
	case *xferDelta:
		r.sched.drain(s.idx)
		s.coal.fail(ErrEjected)
		r.inflight.reset()
		// applyEntries runs the normal apply path: the durability filter
		// drops entries this store already absorbed (the advertised frontier
		// can be stale — an ejected replica keeps applying URB deliveries
		// after its joinReq went out), the survivors are WAL-logged, applied,
		// and retained for onward deltas. TO-lane entries re-advance the
		// shard's commit clock through their original ordinals.
		if len(st.Entries) > 0 {
			r.applyEntries(s, st.Entries, false)
		}
		s.lm.InstallState(st.Leases)
		s.certLog.restore(st.CertLog)
		r.dur.deltaInstalled.Inc()
	}
}

// toFrontierOf extracts the TO-lane clock from an advertised frontier map
// (carried under transport.Nobody so the wire format of the per-writer map
// is unchanged).
func toFrontierOf(f map[transport.ID]uint64) int64 {
	return int64(f[transport.Nobody])
}

// enqueueApply hands UR-delivered write-sets (the paper's commitRemoteXact;
// for the replica's own transactions, the commit confirmation) to the
// parallel apply stage. Entries of one message apply in order; messages of
// one (sender, shard) channel or with intersecting conflict classes apply in
// delivery order; everything else runs concurrently on the worker pool.
func (r *Replica) enqueueApply(s *shardState, from transport.ID, entries []applyWSEntry, fromBatch bool) {
	boxes := make([]string, 0, len(entries)*2)
	for _, e := range entries {
		for _, w := range e.WS {
			boxes = append(boxes, w.Box)
		}
	}
	r.sched.submit(&applyTask{
		classes: r.classes(boxes),
		sender:  from,
		shard:   s.idx,
		run:     func() { r.applyEntries(s, entries, fromBatch) },
	})
}

// applyEntries installs a delivered batch under one acquisition of the
// union of its commit stripes and resolves the local waiters it carries.
// The durability tier sees the batch FIRST: it filters out entries the store
// already absorbed (idempotence across delta installs and stale-frontier
// overlaps), logs the survivors, and only those reach the store — but local
// waiters are resolved for every entry addressed to us, filtered or not
// (a filtered own entry means the commit is already durable here). The whole
// append+apply runs under the durability tier's shared apply barrier so a
// concurrent snapshot never observes a frontier without its store effect.
func (r *Replica) applyEntries(s *shardState, entries []applyWSEntry, fromBatch bool) {
	applyStart := time.Now()
	defer func() { r.stageApply.Observe(time.Since(applyStart)) }()
	r.dur.applyMu.RLock()
	fresh := r.dur.append(s.idx, entries)
	batch := make([]stm.TxnWriteSet, len(fresh))
	for i, e := range fresh {
		batch[i] = stm.TxnWriteSet{Writer: e.TxnID, WS: e.WS}
	}
	r.store.ApplyWriteSets(batch)
	for _, e := range fresh {
		if e.Ord > 0 {
			s.advanceTO(e.Ord)
		}
	}
	r.dur.applyMu.RUnlock()
	mine := false
	for _, e := range entries {
		if e.TxnID.Replica == r.id {
			mine = true
			r.inflight.release(r.wsClasses(e.WS))
			r.resolveWaiter(e.TxnID, nil)
		}
	}
	for range fresh {
		r.maybeGC()
	}
	if mine && fromBatch {
		s.coal.batchDelivered()
	}
}

// onEnabledPayload certifies a §4.5(c) piggybacked transaction the moment
// its lease request is established on its home shard. Every replica performs
// the same writer-identity validation against an identical (conflict-ordered)
// store state, so the outcome is deterministic cluster-wide; on success the
// write-set is applied immediately — no separate broadcast. Valid payloads
// are TO-lane applies: they take the next ordinal on the shard's commit
// clock rather than advancing the writer's URB frontier (the TO lane does
// not respect URB sequence order).
func (r *Replica) onEnabledPayload(s *shardState, req *lease.Request) {
	p, ok := req.Payload.(*certPayload)
	if !ok || p == nil {
		return
	}
	valid := true
	for _, e := range p.RS {
		w, exists := r.store.HeadWriter(e.Box)
		if !exists {
			if !e.Writer.IsZero() {
				valid = false
				break
			}
			continue
		}
		if w != e.Writer {
			valid = false
			break
		}
	}
	if valid {
		// Through the durability filter like every applied write-set: logged
		// before installed, skipped entirely if already absorbed.
		r.dur.applyMu.RLock()
		ord := s.toOrd.Load() + 1
		if fresh := r.dur.append(s.idx, []applyWSEntry{{TxnID: p.TxnID, Ord: ord, WS: p.WS}}); len(fresh) > 0 {
			r.store.ApplyWriteSet(p.TxnID, p.WS)
			s.advanceTO(ord)
			r.dur.applyMu.RUnlock()
			r.maybeGC()
		} else {
			r.dur.applyMu.RUnlock()
		}
	}
	if p.TxnID.Replica == r.id {
		if valid {
			r.resolveWaiter(p.TxnID, nil)
		} else {
			r.resolveWaiter(p.TxnID, errValidationFailed)
		}
	}
}
