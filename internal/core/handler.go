package core

import (
	"maps"
	"slices"
	"time"

	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/trace"
	"github.com/alcstm/alc/internal/transport"
	"github.com/alcstm/alc/internal/wire"
)

// gcsHandler adapts a Replica to the gcs.Handler and gcs.StateTransfer
// interfaces without exposing the upcall methods on the Replica's public
// API. All methods run on the GCS dispatcher goroutine, sequentially, in the
// group's delivery order.
type gcsHandler struct {
	r *Replica
}

var (
	_ gcs.Handler       = (*gcsHandler)(nil)
	_ gcs.StateTransfer = (*gcsHandler)(nil)
)

// OnOptDeliver feeds optimistically delivered lease requests to the lease
// manager (§4.5 optimization (b): early lease freeing).
func (h *gcsHandler) OnOptDeliver(from transport.ID, body any) {
	if req, ok := body.(*lease.Request); ok {
		h.r.lm.HandleRequestOpt(req)
	}
}

// OnTODeliver routes totally ordered messages: lease requests to the lease
// manager, certification messages to the CERT validator.
func (h *gcsHandler) OnTODeliver(from transport.ID, body any) {
	r := h.r
	r.confirmView()
	switch m := body.(type) {
	case *lease.Request:
		r.lm.HandleRequestTO(m)
		r.resolvePayloads()
	case *certMsg:
		r.certApply(m)
	}
}

// OnURDeliver routes causally ordered messages: write-set applications (the
// paper's commitRemoteXact; for the replica's own transactions, the commit
// confirmation) and lease releases. A batch is applied here, before the next
// delivery, so every write-set a released lease covered is in the store when
// the lease moves on.
func (h *gcsHandler) OnURDeliver(from transport.ID, body any) {
	r := h.r
	r.confirmView()
	switch m := body.(type) {
	case *applyWSBatchMsg:
		r.applyEntries(m.Entries)
	case *lease.Freed:
		r.lm.HandleFreed(m)
		r.resolvePayloads()
	}
}

// confirmView runs on the first delivery after a view change: it lets the
// lease manager fire the payloads it held back (lease.Manager.ConfirmView).
func (r *Replica) confirmView() {
	if r.viewUnconfirmed {
		r.viewUnconfirmed = false
		r.lm.ConfirmView()
		r.resolvePayloads()
	}
}

// resolvePayloads moves the durability tier's TO frontier up to the lease
// manager's ResolvedTO after a lease event: every §4.5(c) payload at or below
// it has been applied here or will be applied nowhere. It runs on the
// dispatcher right after the payload callbacks the event fired, so the
// frontier never claims a payload the store has not absorbed.
func (r *Replica) resolvePayloads() {
	if r.cfg.Protocol == ProtocolALC {
		r.dur.resolvePayloads(r.lm.ResolvedTO())
	}
}

// OnViewChange installs the group's new membership.
func (h *gcsHandler) OnViewChange(v gcs.View) {
	r := h.r
	r.viewMu.Lock()
	r.view = v
	r.viewMu.Unlock()
	r.dur.stampInstall(v.ID)
	r.primary.Store(v.Primary)
	r.lm.HandleViewChange(v.Members, v.Rejoined)
	r.resolvePayloads()
	// The lease manager holds payloads back until a delivery in this view
	// proves a quorum installed it (confirmView).
	r.viewUnconfirmed = r.cfg.Protocol == ProtocolALC
	if t := r.cfg.Tracer; t != nil {
		t.Emitf(r.id, trace.KindView, 0, "view %d members=%v rejoined=%v primary=%t",
			v.ID, v.Members, v.Rejoined, v.Primary)
	}
}

// OnEjected fails every in-flight commit: only read-only transactions remain
// serviceable outside the primary component.
func (h *gcsHandler) OnEjected() {
	r := h.r
	r.primary.Store(false)
	r.lm.HandleEjected()
	// Order matters: with primary already false, a committer that enqueues
	// after this fail is rejected by the coalescer itself, so no stale
	// write-set can linger and be broadcast after a rejoin.
	r.coal.fail(ErrEjected)
	r.failAllWaiters(ErrEjected)
	// Clear reservations (their write-sets will never self-deliver) and
	// wake waiting committers so they observe the ejection.
	r.inflight.reset()
}

// JoinFrontier advertises the applied frontier in this replica's next join
// request (gcs.StateTransfer): nil while the store is not a complete,
// frontier-consistent base, which demands a full transfer.
func (h *gcsHandler) JoinFrontier() map[transport.ID]uint64 { return h.r.dur.advertise() }

// StatesFor serves every joiner of view its state transfer (gcs.
// StateTransfer). A joiner that advertised frontier f gets a delta — only the
// write-set entries past f — unless durable.delta declines it (its gap
// outruns the retained window or its frontier is incomparable); every other
// joiner gets the full state, cut at most once per call. It runs on the
// dispatcher, between installs, so the store cut matches the frontier
// exactly. Each decision goes on the transfer record.
func (h *gcsHandler) StatesFor(view uint64, joiners map[transport.ID]map[transport.ID]uint64) map[transport.ID]any {
	r := h.r
	leases, certLog := r.lm.SnapshotState(), r.certLog.snapshot()
	var full *xferState
	out := make(map[transport.ID]any, len(joiners))
	for _, j := range slices.Sorted(maps.Keys(joiners)) {
		f := joiners[j]
		rec := Transfer{View: view, Joiner: j, Served: true, Kind: TransferDelta, Frontier: f}
		st := &xferState{Delta: true, Leases: leases, CertLog: certLog}
		var why declineReason
		if f != nil {
			st.Entries, why = r.dur.delta(f)
		}
		if f != nil && why == deltaServed {
			r.dur.deltasServed.Inc()
			r.dur.lastDeltaBytes.Store(wireSize(st))
		} else {
			if full == nil {
				frontier, toAbove := r.dur.cut()
				full = &xferState{Store: r.store.Snapshot(), Frontier: frontier, TOAbove: toAbove,
					Leases: leases, CertLog: certLog}
				r.dur.lastFullBytes.Store(wireSize(full))
			}
			rec.Kind, rec.Declined, st = TransferFull, why.String(), full
			r.dur.fullsServed.Inc()
		}
		r.dur.recordTransfer(rec)
		out[j] = st
	}
	return out
}

// wireSize measures a state transfer in the wire codec. Best-effort: without
// RegisterWire (in-memory transports never serialize) or with a box value
// whose type has no wire.Register codec, the size is reported as 0, not an
// error.
func wireSize(st any) int64 {
	b, err := wire.AppendAny(nil, st)
	if err != nil {
		return 0
	}
	return int64(len(b))
}

// InstallState adopts a transferred state on this joining replica (gcs.
// StateTransfer): the full state replaces the store and restarts the
// durability tier at its frontier; a delta's suffix takes the one install
// step on top of the locally recovered store — the durability filter drops
// entries this store already absorbed (the advertised frontier can be stale:
// an ejected replica keeps applying URB deliveries after its join request
// went out), and CERT's TO-lane entries re-advance the commit clock through
// their original ordinals. The lease table goes last: it says which payloads
// the sender resolved, and the others fire here once the view is confirmed,
// against the installed store and durability baseline.
func (h *gcsHandler) InstallState(state any) {
	r := h.r
	st, _ := state.(*xferState)
	if st == nil {
		return
	}
	// Anything still queued locally predates the transferred state and is
	// void (the joiner's waiters were already failed at ejection); the
	// coalescer, failed here, has no batch outstanding for a delta's own
	// entries to settle.
	r.coal.fail(ErrEjected)
	r.inflight.reset()
	kind := TransferFull
	if st.Delta {
		kind = TransferDelta
		r.applyEntries(st.Entries)
		r.dur.deltaInstalled.Inc()
	} else {
		r.sealSeed()
		r.store.Restore(st.Store)
		r.dur.installFull(st.Frontier, st.TOAbove, r.store)
	}
	r.certLog.restore(st.CertLog)
	r.lm.InstallState(st.Leases)
	r.dur.recordTransfer(Transfer{Joiner: r.id, Kind: kind})
	r.resolvePayloads()
	r.dur.publishClock()
}

// install is the one step every delivered write-set takes into the store: a
// URB batch, a delta transfer's suffix, a CERT commit and a §4.5(c) payload.
// The durability tier sees the entries FIRST: it filters out those the store
// already absorbed (idempotence across delta installs and stale-frontier
// overlaps), logs the survivors and advances their lanes' frontiers — CERT's
// commit clock included — and only those reach the store, under one
// acquisition of its commit lock. Then the clock CERT committers sample is
// published: it never names a commit the store does not hold yet; and the
// periodic durable snapshot is taken when the log has grown enough. All of
// it runs on the dispatcher, so no snapshot or state transfer can observe a
// frontier without its store effect. It returns the entries installed.
func (r *Replica) install(entries []applyWSEntry) []applyWSEntry {
	start := time.Now()
	r.sealSeed()
	fresh := r.dur.append(entries)
	if installHook != nil {
		installHook(r)
	}
	// The store does not keep the batch: its slice is dispatcher scratch.
	batch := r.applyBatch[:0]
	for _, e := range fresh {
		batch = append(batch, stm.TxnWriteSet{Writer: e.TxnID, WS: e.WS})
	}
	r.store.ApplyWriteSets(batch)
	r.dur.publishClock()
	r.dur.maybeSnapshot(r.store)
	clear(batch)
	if cap(batch) <= maxBatchTxns {
		r.applyBatch = batch
	}
	for range fresh {
		r.maybeGC()
	}
	r.stageApply.Observe(time.Since(start))
	return fresh
}

// applyEntries installs a delivered batch and resolves the local waiters it
// carries: every entry addressed to us, installed or filtered (a filtered
// own entry means the commit is already durable here).
func (r *Replica) applyEntries(entries []applyWSEntry) {
	r.install(entries)
	mine := false
	for _, e := range entries {
		if e.TxnID.Replica == r.id {
			mine = true
			r.resolveWaiter(e.TxnID, nil) // releases its reservation
		}
	}
	if mine {
		r.coal.batchDelivered()
	}
}

// onEnabledPayload certifies a §4.5(c) piggybacked transaction — ALC's
// lease-miss commit — the moment its lease request is enabled on delivered
// events (lease.PayloadHandler). Every replica enables the request after the
// same conflicting history and validates the read-set by writer identity
// (Store.Stale), so the outcome is the same cluster-wide; on success the
// write-set is installed at once, with no broadcast of its own. It is a
// TO-lane entry keyed on pos, the request's TO position, in the lease table's
// epoch: applies happen in enablement order, which differs across replicas
// for unrelated requests, but the ordinal does not.
func (r *Replica) onEnabledPayload(req *lease.Request, pos uint64) {
	p, ok := req.Payload.(*certPayload)
	if !ok || p == nil {
		return
	}
	if payloadHook != nil {
		payloadHook(r.id)
	}
	valid := r.store.Stale(p.RS) == nil
	if valid {
		r.install([]applyWSEntry{{TxnID: p.TxnID, LeaseID: req.ID, Ord: r.dur.payloadOrd(pos), WS: p.WS}})
	}
	if p.TxnID.Replica == r.id {
		r.resolveWaiter(p.TxnID, verdict(valid))
	}
}

// payloadHook, when set (tests only), runs at the top of every payload
// certification: a seam to widen the window between a payload request's
// enablement and its apply.
var payloadHook func(replica transport.ID)

// installHook, when set (tests only), runs in every install between the
// durability tier's append and the store install.
var installHook func(r *Replica)
