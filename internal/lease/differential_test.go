package lease

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/transport"
)

// --- The naive model ----------------------------------------------------------
//
// The paper's lock table as one flat list, every question answered by scanning
// it: a request is enabled when no older live request conflicts with it. The
// Manager answers the same questions from per-class queues and small
// maintained sets; TestDifferentialAgainstNaiveModel holds the two together.

type mreq struct {
	id                                       RequestID
	classes                                  []ConflictClass
	wildcard                                 bool
	local, enqueued, blocked, freed, replace bool
	payload, fired, ownerFreed               bool
	active                                   int
	pos                                      uint64
}

type model struct {
	self     transport.ID
	optFree  bool
	reqs     []*mreq // creation order
	early    map[RequestID]bool
	seq, pos uint64
	stats    Stats
	freed    [][]RequestID // every Freed batch broadcast, in order
	payloads []RequestID   // every payload callback, in order
	// ghosts are local requests released before their release came back;
	// due are payload requests their owner released before they fired.
	ghosts, due []*mreq
	// pending: no payload fires between a view change (or a state transfer)
	// and the first delivery in the new view.
	pending bool
}

func (md *model) find(id RequestID) *mreq {
	for _, r := range md.reqs {
		if r.id == id {
			return r
		}
	}
	return nil
}

func (md *model) drop(r *mreq) {
	md.reqs = slices.DeleteFunc(md.reqs, func(x *mreq) bool { return x == r })
}

func conflict(aw bool, ac []ConflictClass, bw bool, bc []ConflictClass) bool {
	return aw || bw || intersects(ac, bc)
}

// enabled is the paper's isEnabled: live, and older than every live request it
// conflicts with.
func (md *model) enabled(r *mreq) bool {
	if !r.enqueued || r.freed {
		return false
	}
	for _, o := range md.reqs {
		if o != r && o.enqueued && !o.freed && o.pos < r.pos &&
			conflict(r.wildcard, r.classes, o.wildcard, o.classes) {
			return false
		}
	}
	return true
}

// behindGhost: an older request released here, but not yet delivered,
// conflicts with r.
func (md *model) behindGhost(r *mreq) bool {
	for _, g := range md.ghosts {
		if g.pos < r.pos && conflict(r.wildcard, r.classes, g.wildcard, g.classes) {
			return true
		}
	}
	return false
}

// held: transactions may run under r — enabled, and its payload fired.
func (md *model) held(r *mreq) bool {
	return md.enabled(r) && (!r.payload || r.fired)
}

// covers: only a wildcard covers a wildcard ask.
func (r *mreq) covers(classes []ConflictClass, wildcard bool) bool {
	return r.wildcard || !wildcard && subset(classes, r.classes)
}

func (r *mreq) admits(classes []ConflictClass, wildcard bool) bool {
	return r.local && !r.blocked && !r.freed && r.covers(classes, wildcard)
}

// joinable is the oldest request admitting a transaction on classes (every
// class, for a wildcard): enqueued ones in TO order, then in-flight ones in
// issue order.
func (md *model) joinable(classes []ConflictClass, wildcard bool) *mreq {
	var best *mreq
	for _, r := range md.reqs {
		if !r.admits(classes, wildcard) {
			continue
		}
		if best == nil || (r.enqueued && (!best.enqueued || r.pos < best.pos)) {
			best = r
		}
	}
	return best
}

// holder is the held local request covering classes.
func (md *model) holder(classes []ConflictClass) *mreq {
	for _, r := range md.reqs {
		if r.local && r.covers(classes, false) && md.held(r) {
			return r
		}
	}
	return nil
}

// issue is a fresh local request; old, when non-nil, is the held request it
// replaces: released by piggyback.
func (md *model) issue(classes []ConflictClass, wildcard, payload bool, old *mreq) (*mreq, []RequestID) {
	var freeFirst []RequestID
	if old != nil {
		old.active--
		old.blocked, old.replace = true, true
		freeFirst = []RequestID{old.id}
	}
	md.seq++
	r := &mreq{id: RequestID{Proc: md.self, Seq: md.seq}, classes: classes, wildcard: wildcard,
		payload: payload, local: true, active: 1}
	md.reqs = append(md.reqs, r)
	md.stats.Requested++
	return r, freeFirst
}

func (md *model) blockLocal(req *Request, except *mreq) {
	for _, r := range md.reqs {
		if r == except || !r.local || r.freed || r.blocked ||
			!conflict(req.Wildcard, req.Classes, r.wildcard, r.classes) {
			continue
		}
		if req.ID.Proc != md.self && md.enabled(r) {
			md.stats.Stolen++
		}
		r.blocked = true
	}
}

func (md *model) applyFreed(id RequestID) {
	r := md.find(id)
	switch {
	case r == nil && id.Proc == md.self:
	case r == nil || !r.enqueued:
		md.early[id] = true
	case !r.freed:
		md.ownerFreed(r)
		r.freed = true
		if !r.local || r.active == 0 {
			md.drop(r)
		}
	}
}

// ownerFreed: a payload request released before it fired here is due.
func (md *model) ownerFreed(r *mreq) {
	if r.payload && !r.fired {
		r.ownerFreed = true
		md.due = append(md.due, r)
	}
}

// confirm retires the ghost of a local release that came back.
func (md *model) confirm(id RequestID) {
	md.ghosts = slices.DeleteFunc(md.ghosts, func(g *mreq) bool { return g.id == id })
}

// freeDrained releases every blocked local request without transactions
// whose payload, if any, fired.
func (md *model) freeDrained() {
	var batch []RequestID
	for _, r := range slices.Clone(md.reqs) {
		if r.local && r.enqueued && r.blocked && !r.freed && !r.replace && r.active == 0 &&
			(!r.payload || r.fired) {
			r.freed = true
			md.drop(r)
			md.ghosts = append(md.ghosts, r)
			batch = append(batch, r.id)
		}
	}
	if len(batch) > 0 {
		sort.Slice(batch, func(i, j int) bool { return batch[i].Seq < batch[j].Seq })
		md.stats.Freed += int64(len(batch))
		md.freed = append(md.freed, batch)
	}
}

// settle is what follows a delivery: releases, then the payload callbacks in
// TO order, then the releases the fired payloads let go.
func (md *model) settle() {
	md.freeDrained()
	if md.pending {
		return
	}
	var out []*mreq
	for _, r := range append(slices.Clone(md.reqs), md.due...) {
		if r.payload && !r.fired && (r.ownerFreed || (md.enabled(r) && !md.behindGhost(r))) {
			r.fired = true
			out = append(out, r)
		}
	}
	md.due = nil
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	for _, r := range out {
		md.payloads = append(md.payloads, r.id)
	}
	md.freeDrained()
}

func (md *model) opt(req *Request) {
	if md.optFree && req.ID.Proc != md.self {
		md.blockLocal(req, nil)
		md.freeDrained()
	}
}

func (md *model) to(req *Request) {
	for _, id := range req.FreeFirst {
		md.applyFreed(id)
	}
	r := md.find(req.ID)
	if r == nil {
		r = &mreq{id: req.ID, classes: req.Classes, wildcard: req.Wildcard, local: req.ID.Proc == md.self,
			payload: req.Payload != nil}
		md.reqs = append(md.reqs, r)
	}
	md.pos++
	r.pos, r.enqueued = md.pos, true
	if md.early[req.ID] {
		delete(md.early, req.ID)
		md.ownerFreed(r)
		r.freed = true
	}
	md.blockLocal(req, r)
	md.settle()
}

func (md *model) finished(id RequestID) {
	r := md.find(id)
	if r == nil || !r.local {
		return
	}
	if r.active > 0 {
		r.active--
	}
	md.freeDrained()
	if r.freed && r.active == 0 {
		md.drop(r)
	}
}

func (md *model) viewChange(gone func(transport.ID) bool) {
	for id := range md.early {
		if gone(id.Proc) {
			delete(md.early, id)
		}
	}
	md.reqs = slices.DeleteFunc(md.reqs, func(r *mreq) bool { return gone(r.id.Proc) })
	md.pending = true
	// A payload held for the view makes the manager broadcast an empty
	// release, so a delivery confirms the view.
	for _, r := range append(slices.Clone(md.reqs), md.due...) {
		if r.payload && r.enqueued && !r.fired && (!r.freed || r.ownerFreed) {
			md.freed = append(md.freed, nil)
			break
		}
	}
	md.settle()
}

// confirm is the first delivery after a view change.
func (md *model) confirmView() {
	if md.pending {
		md.pending = false
		md.settle()
	}
}

// reinstall is SnapshotState → InstallState: the live requests and whether
// their payload fired survive, the owner-side bookkeeping does not; payloads
// enabled but held back by a ghost fire at once.
func (md *model) reinstall() {
	md.reqs = slices.DeleteFunc(md.reqs, func(r *mreq) bool { return !r.enqueued || r.freed })
	for i, r := range md.reqs {
		c := *r
		c.blocked, c.replace, c.active = false, false, 0
		md.reqs[i] = &c // calls parked on r keep the orphan
	}
	md.early = map[RequestID]bool{}
	md.ghosts = nil
	md.pending = true
	md.settle()
}

// --- The driver -----------------------------------------------------------------

// diffBus is the loop-back group of a lone manager: it records what is
// broadcast and delivers nothing by itself; the schedule decides when.
type diffBus struct {
	mu    sync.Mutex
	oab   []*Request
	freed [][]RequestID
	urb   []*Freed
}

func (b *diffBus) OABroadcast(body any) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.oab = append(b.oab, body.(*Request))
	return nil
}

func (b *diffBus) URBroadcast(body any) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	f := body.(*Freed)
	b.freed = append(b.freed, f.IDs)
	b.urb = append(b.urb, f)
	return nil
}

func (b *diffBus) take(id RequestID) *Request {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, r := range b.oab {
		if r.ID == id {
			b.oab = slices.Delete(b.oab, i, i+1)
			return r
		}
	}
	return nil
}

type diffResult struct {
	id  RequestID
	err error
}

// diffCall is a blocking acquisition running on its own goroutine.
type diffCall struct {
	on    *mreq // the request it waits on; nil for a lease miss
	fresh bool  // it issued the request (counts as Acquired)
	done  chan diffResult
}

// The outcomes of Establish, counted over a run of seeds: each must be driven.
const (
	outKeep = iota
	outReplace
	outLeave // a held lease others share is left
	outJoin
	outMiss
	outIssue
	nOutcomes
)

// undelivered is an OA-broadcast request not yet TO-delivered.
type undelivered struct {
	id        RequestID
	req       *Request // nil for a local request: fetched from the bus
	opt       bool     // already Opt-delivered
	freeFirst []RequestID
}

type diffDriver struct {
	t        *testing.T
	rng      *rand.Rand
	m        *Manager
	md       *model
	bus      *diffBus
	payloads []RequestID
	calls    []*diffCall
	held     []RequestID // one entry per association the "application" holds
	pending  []*undelivered
	remotes  []RequestID // remote requests their owner has not released
	rseq     uint64
	wg       sync.WaitGroup
	outcomes *[nOutcomes]int
}

func (d *diffDriver) randomSet() []string {
	set := make([]string, 1+d.rng.Intn(3))
	for i := range set {
		set[i] = fmt.Sprintf("k%d", d.rng.Intn(6))
	}
	return set
}

func (d *diffDriver) spawn(on *mreq, fresh bool, f func() (RequestID, error)) {
	c := &diffCall{on: on, fresh: fresh, done: make(chan diffResult, 1)}
	d.calls = append(d.calls, c)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		id, err := f()
		c.done <- diffResult{id, err}
	}()
}

// issue mirrors a fresh local request in the model and the delivery schedule.
func (d *diffDriver) issue(classes []ConflictClass, wildcard, payload bool, old *mreq, f func() (RequestID, error)) {
	r, freeFirst := d.md.issue(classes, wildcard, payload, old)
	d.pending = append(d.pending, &undelivered{id: r.id, freeFirst: freeFirst})
	d.spawn(r, true, f)
}

// establish mirrors one Establish call: keep the held request, replace it
// when the call is its one associate, or leave it; then join the oldest
// admitting local request, report a miss (only with nothing held on entry),
// or issue a request.
func (d *diffDriver) establish(held RequestID, classes []ConflictClass, miss bool) {
	m, md := d.m, d.md
	wildcard := classes == nil
	call := func() (RequestID, error) { return m.Establish(held, classes, miss) }
	if h := md.find(held); h != nil && h.local && !h.freed {
		switch {
		case h.covers(classes, wildcard):
			d.outcomes[outKeep]++
			d.spawn(h, false, call)
			return
		case h.active == 1:
			d.outcomes[outReplace]++
			d.issue(classes, wildcard, false, h, call)
			return
		case h.active > 1:
			d.outcomes[outLeave]++
		}
	}
	md.finished(held)
	switch r := md.joinable(classes, wildcard); {
	case r != nil:
		d.outcomes[outJoin]++
		r.active++
		md.stats.Reused++
		d.spawn(r, false, call)
	case miss && held == (RequestID{}):
		d.outcomes[outMiss]++
		d.spawn(nil, false, call)
	default:
		d.outcomes[outIssue]++
		d.issue(classes, wildcard, false, nil, call)
	}
}

func without1(ids []RequestID, id RequestID) []RequestID {
	if i := slices.Index(ids, id); i >= 0 {
		return slices.Delete(ids, i, i+1)
	}
	return ids
}

func (d *diffDriver) step() {
	m, md := d.m, d.md
	switch k := d.rng.Intn(100); {
	case k < 22 && len(d.calls) < 4: // Establish
		var held RequestID
		if len(d.held) > 0 && d.rng.Intn(3) != 0 {
			// The call takes the association over: it comes back with the
			// call's result.
			held = d.held[d.rng.Intn(len(d.held))]
			d.held = without1(d.held, held)
		}
		var classes []ConflictClass // nil: a wildcard
		if d.rng.Intn(10) != 0 {
			classes = m.cfg.Mapper.Classes(d.randomSet())
		}
		d.establish(held, classes, d.rng.Intn(2) == 0)
	case k < 28 && len(d.calls) < 4:
		classes, payload := m.cfg.Mapper.Classes(d.randomSet()), d.rng.Int()
		d.issue(classes, false, true, nil, func() (RequestID, error) {
			return m.GetLeaseWithPayload(classes, payload)
		})
	case k < 38: // TryReuse
		set := d.randomSet()
		want := md.holder(m.cfg.Mapper.Classes(set))
		if want != nil && want.blocked {
			want = nil
		}
		id, ok := m.TryReuse(set)
		if ok != (want != nil) || (ok && id != want.id) {
			d.t.Fatalf("TryReuse(%v) = %v, %t; model holder %+v", set, id, ok, want)
		}
		if ok {
			want.active++
			md.stats.Reused++
			d.held = append(d.held, id)
		}
	case k < 52 && len(d.held) > 0: // Finished
		i := d.rng.Intn(len(d.held))
		id := d.held[i]
		d.held = slices.Delete(d.held, i, i+1)
		m.Finished(id)
		md.finished(id)
	case k < 62: // a remote request is OA-broadcast
		d.rseq++
		req := &Request{ID: RequestID{Proc: transport.ID(1 + d.rng.Intn(2)), Seq: d.rseq}}
		if d.rng.Intn(12) == 0 {
			req.Wildcard = true
		} else {
			req.Classes = m.cfg.Mapper.Classes(d.randomSet())
		}
		if d.rng.Intn(3) == 0 {
			req.Payload = d.rng.Int()
		}
		if len(d.remotes) > 0 && d.rng.Intn(5) == 0 { // a remote replacement
			if old := d.remotes[d.rng.Intn(len(d.remotes))]; old.Proc == req.ID.Proc {
				req.FreeFirst = []RequestID{old}
				d.remotes = without1(d.remotes, old)
			}
		}
		d.remotes = append(d.remotes, req.ID)
		d.pending = append(d.pending, &undelivered{id: req.ID, req: req})
	case k < 82 && len(d.pending) > 0: // Opt- and/or TO-delivery
		i := d.rng.Intn(len(d.pending))
		u := d.pending[i]
		if u.req == nil {
			if u.req = d.bus.take(u.id); u.req == nil {
				d.t.Fatalf("%v was never OA-broadcast", u.id)
			}
			r := md.find(u.id)
			if r != nil && (!reflect.DeepEqual(u.req.Classes, r.classes) || u.req.Wildcard != r.wildcard) ||
				!reflect.DeepEqual(u.req.FreeFirst, u.freeFirst) {
				d.t.Fatalf("broadcast %+v, model %+v freeFirst %v", u.req, r, u.freeFirst)
			}
		}
		if !u.opt {
			u.opt = true
			m.HandleRequestOpt(u.req)
			md.opt(u.req)
			if d.rng.Intn(3) == 0 {
				return // the total order comes later
			}
			d.check("opt " + u.id.String())
		}
		d.pending = slices.Delete(d.pending, i, i+1)
		d.confirmView()
		m.HandleRequestTO(u.req)
		md.to(u.req)
	case k < 90 && len(d.remotes) > 0: // a remote release, possibly before its request
		i := d.rng.Intn(len(d.remotes))
		id := d.remotes[i]
		d.remotes = slices.Delete(d.remotes, i, i+1)
		d.confirmView()
		m.HandleFreed(&Freed{IDs: []RequestID{id}})
		md.applyFreed(id)
		md.settle()
	case k < 95: // this replica's own releases come back
		d.bus.mu.Lock()
		urb := d.bus.urb
		d.bus.urb = nil
		d.bus.mu.Unlock()
		d.confirmView()
		for _, f := range urb {
			m.HandleFreed(f)
			for _, id := range f.IDs {
				md.applyFreed(id)
				md.confirm(id)
			}
			md.settle()
		}
	case k < 98: // view change: a remote process leaves or is reborn
		p := transport.ID(1 + d.rng.Intn(2))
		members, fresh := []transport.ID{0, 1, 2}, []transport.ID{0, p}
		if d.rng.Intn(2) == 0 {
			members, fresh = []transport.ID{0, 3 - p}, nil
		}
		gone := func(q transport.ID) bool { return q == p }
		d.pending = slices.DeleteFunc(d.pending, func(u *undelivered) bool { return gone(u.id.Proc) })
		d.remotes = slices.DeleteFunc(d.remotes, func(id RequestID) bool { return gone(id.Proc) })
		m.HandleViewChange(members, fresh)
		md.viewChange(gone)
	default: // state transfer onto the running manager
		m.InstallState(m.SnapshotState())
		md.reinstall()
		d.held = nil
	}
}

// confirmView is what the replication manager does on a delivery: the first
// one after a view change confirms it.
func (d *diffDriver) confirmView() {
	d.m.ConfirmView()
	d.md.confirmView()
}

// resolve waits for the calls the model says are over and checks how they
// ended: a call returns once its request is enabled, fails with ErrDeadlock
// when a state transfer orphaned it, and a lease miss returns ErrMiss at once.
func (d *diffDriver) resolve() {
	open := d.calls[:0]
	for _, c := range d.calls {
		if c.on == nil {
			if got := d.result(c, "lease miss"); !errors.Is(got.err, ErrMiss) {
				d.t.Fatalf("lease miss returned %v, %v", got.id, got.err)
			}
			continue
		}
		orphan := d.md.find(c.on.id) != c.on
		if !orphan && !d.md.held(c.on) {
			open = append(open, c)
			continue
		}
		got := d.result(c, fmt.Sprintf("call on %v (orphan=%t)", c.on.id, orphan))
		switch {
		case orphan:
			if !errors.Is(got.err, ErrDeadlock) {
				d.t.Fatalf("orphaned call on %v returned %v, %v", c.on.id, got.id, got.err)
			}
		case got.err != nil || got.id != c.on.id:
			d.t.Fatalf("call on %v returned %v, %v", c.on.id, got.id, got.err)
		default:
			if c.fresh {
				d.md.stats.Acquired++
			}
			d.held = append(d.held, got.id)
		}
	}
	d.calls = open
}

// result is what a call returned, once it has.
func (d *diffDriver) result(c *diffCall, what string) diffResult {
	d.t.Helper()
	select {
	case got := <-c.done:
		return got
	case <-time.After(10 * time.Second):
		d.t.Fatalf("%s did not return", what)
		return diffResult{}
	}
}

type reqView struct {
	Enqueued, Enabled, Blocked bool
	Active                     int
}

// check compares manager and model once the manager is quiescent: every call
// the model expects to be parked is parked (the Waiting gauge, read under the
// manager's lock, says so: a waiter holds the lock whenever it is not parked).
func (d *diffDriver) check(event string) {
	d.t.Helper()
	m, md := d.m, d.md
	d.resolve()
	md.stats.Waiting = int64(len(d.calls))
	deadline := time.Now().Add(10 * time.Second)
	for m.mu.Lock(); m.nWaiting.Value() != md.stats.Waiting; m.mu.Lock() {
		m.mu.Unlock()
		if time.Now().After(deadline) {
			d.t.Fatalf("after %s: %d calls parked, model %d", event, m.nWaiting.Value(), md.stats.Waiting)
		}
		runtime.Gosched()
	}
	got := map[RequestID]reqView{}
	for id, st := range m.reqs {
		if !st.freed {
			got[id] = reqView{st.enqueued, m.enabledLocked(st), st.blocked, st.active}
		}
	}
	gotEarly := len(m.earlyFreed)
	indexErr := m.checkIndexesLocked()
	m.mu.Unlock()

	want := map[RequestID]reqView{}
	for _, r := range md.reqs {
		if !r.freed {
			want[r.id] = reqView{r.enqueued, md.enabled(r), r.blocked, r.active}
		}
	}
	d.bus.mu.Lock()
	gotFreed := slices.Clone(d.bus.freed)
	d.bus.mu.Unlock()
	switch {
	case indexErr != nil:
		d.t.Fatalf("after %s: %v", event, indexErr)
	case !reflect.DeepEqual(got, want):
		d.t.Fatalf("after %s: table\n got  %v\n want %v", event, got, want)
	case !reflect.DeepEqual(gotFreed, md.freed):
		d.t.Fatalf("after %s: Freed batches\n got  %v\n want %v", event, gotFreed, md.freed)
	case !reflect.DeepEqual(d.payloads, md.payloads):
		d.t.Fatalf("after %s: payload callbacks\n got  %v\n want %v", event, d.payloads, md.payloads)
	case m.Stats() != md.stats:
		d.t.Fatalf("after %s: stats\n got  %+v\n want %+v", event, m.Stats(), md.stats)
	case gotEarly != len(md.early):
		d.t.Fatalf("after %s: %d early releases buffered, model %d", event, gotEarly, len(md.early))
	}
	set := d.randomSet()
	classes := m.cfg.Mapper.Classes(set)
	if got, want := m.HoldsLease(set), md.holder(classes) != nil; got != want {
		d.t.Fatalf("after %s: HoldsLease(%v) = %t, model %t", event, set, got, want)
	}
	for _, classes := range [][]ConflictClass{classes, nil} {
		m.mu.Lock()
		var got RequestID
		if st := m.joinableLocked(classes); st != nil {
			got = st.req.ID
		}
		m.mu.Unlock()
		var want RequestID
		if r := md.joinable(classes, classes == nil); r != nil {
			want = r.id
		}
		if got != want {
			d.t.Fatalf("after %s: joinable(%v) = %v, model %v", event, classes, got, want)
		}
	}
}

// checkIndexesLocked verifies every maintained set against a scan of the
// request map: an index that drifts shows here on the event that broke it, not
// schedules later when a lookup misses.
func (m *Manager) checkIndexesLocked() error {
	var wild, inflight []*reqState
	live := 0
	for _, st := range m.reqs {
		isLive := st.enqueued && !st.freed
		switch {
		case isLive:
			live++
			if st.req.Wildcard {
				wild = append(wild, st)
			}
		case st.local && !st.enqueued:
			inflight = append(inflight, st)
		}
		if st.local && st.blocked && !st.freed && !slices.Contains(m.draining, st) {
			return fmt.Errorf("%v is blocked and not in draining", st.req.ID)
		}
		heads := 0
		for _, cc := range st.req.Classes {
			q := m.queues[cc]
			if isLive != slices.Contains(q, st) {
				return fmt.Errorf("%v live=%t, queue %d disagrees", st.req.ID, isLive, cc)
			}
			if isLive && q[0] == st {
				heads++
			}
		}
		if isLive && heads != st.headCount {
			return fmt.Errorf("%v heads %d queues, headCount %d", st.req.ID, heads, st.headCount)
		}
	}
	sort.Slice(wild, func(i, j int) bool { return wild[i].pos < wild[j].pos })
	sort.Slice(inflight, func(i, j int) bool { return inflight[i].req.ID.Seq < inflight[j].req.ID.Seq })
	switch {
	case live != m.live:
		return fmt.Errorf("%d live requests, counter %d", live, m.live)
	case !slices.Equal(wild, m.wild):
		return fmt.Errorf("wildcard list %v, want %v", m.wild, wild)
	case !slices.Equal(inflight, m.inflight):
		return fmt.Errorf("in-flight set %v, want %v", m.inflight, inflight)
	}
	for _, w := range wild {
		ahead := 0
		for _, st := range m.reqs {
			if st.enqueued && !st.freed && st.pos < w.pos {
				ahead++
			}
		}
		if ahead != w.ahead {
			return fmt.Errorf("wildcard %v has %d older live requests, counter %d", w.req.ID, ahead, w.ahead)
		}
	}
	for cc, q := range m.queues {
		if len(q) == 0 {
			return fmt.Errorf("empty queue kept for class %d", cc)
		}
	}
	return nil
}

// TestDifferentialAgainstNaiveModel drives one Manager through randomized
// schedules of Establish (every outcome: keep, replace, leave, join, miss,
// issue; wildcards included), payload requests, TryReuse, Finished, Opt- and
// TO-deliveries in any order, early and late releases, view changes and state
// transfers, and after every event compares it with the naive scan model: the
// table (who is enabled, who is blocked, how many transactions each request
// carries), the Freed batches broadcast and the payload callbacks (ids and
// order), all six Stats counters, the request a join would pick, and the
// maintained indexes against the request map. It is the semantic gate of the
// class-indexed table and runs under -short.
func TestDifferentialAgainstNaiveModel(t *testing.T) {
	var outcomes [nOutcomes]int
	runs := 0
	for _, cfg := range []Config{{}, {OptimisticFree: true}} {
		for seed := int64(1); seed <= 12; seed++ {
			name := fmt.Sprintf("opt=%t/seed=%d", cfg.OptimisticFree, seed)
			if t.Run(name, func(t *testing.T) { runDifferential(t, cfg, seed, &outcomes) }) {
				runs++
			}
		}
	}
	t.Logf("Establish outcomes (keep, replace, leave, join, miss, issue): %v", outcomes)
	if runs == 24 && slices.Contains(outcomes[:], 0) {
		t.Errorf("an Establish outcome was never driven: %v", outcomes)
	}
}

func runDifferential(t *testing.T, cfg Config, seed int64, outcomes *[nOutcomes]int) {
	d := &diffDriver{
		t:        t,
		rng:      rand.New(rand.NewSource(seed)),
		bus:      &diffBus{},
		md:       &model{optFree: cfg.OptimisticFree, early: map[RequestID]bool{}},
		outcomes: outcomes,
	}
	d.m = NewManager(0, d.bus, cfg)
	d.m.SetPayloadHandler(func(req *Request, _ uint64) { d.payloads = append(d.payloads, req.ID) })
	defer func() {
		d.m.Close() // parked calls return ErrStopped
		d.wg.Wait()
	}()
	for i := 0; i < 400; i++ {
		d.step()
		d.check(fmt.Sprintf("step %d", i))
	}
}
