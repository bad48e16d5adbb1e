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

func (r *mreq) admits(classes []ConflictClass) bool {
	return r.local && !r.blocked && !r.freed && (r.wildcard || subset(classes, r.classes))
}

// joinable is the oldest request admitting a transaction on classes: enqueued
// ones in TO order, then in-flight ones in issue order.
func (md *model) joinable(classes []ConflictClass) *mreq {
	var best *mreq
	for _, r := range md.reqs {
		if !r.admits(classes) {
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
		if r.local && (r.wildcard || subset(classes, r.classes)) && md.held(r) {
			return r
		}
	}
	return nil
}

// issue is a fresh local request; old, when it is a live local request, is
// released by piggyback.
func (md *model) issue(classes []ConflictClass, wildcard, payload bool, old RequestID) (*mreq, []RequestID) {
	var freeFirst []RequestID
	if o := md.find(old); old != (RequestID{}) && o != nil && o.local {
		o.active--
		o.blocked, o.replace = true, true
		freeFirst = []RequestID{old}
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
	on    *mreq // the request it waits on
	fresh bool  // it issued the request (counts as Acquired)
	done  chan diffResult
}

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
}

// failf reports a divergence — unless the wait-for-graph detector fired. Its
// victim choice is gated on wall-clock time (a cycle must persist 100 ms),
// which the model does not have: a schedule that a stalled host stretched that
// far is abandoned, not judged.
func (d *diffDriver) failf(format string, args ...any) {
	d.t.Helper()
	if d.m.Stats().Deadlocks > 0 {
		d.t.Skip("the time-gated deadlock detector fired: schedule abandoned")
	}
	d.t.Fatalf(format, args...)
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
func (d *diffDriver) issue(classes []ConflictClass, wildcard, payload bool, old RequestID, f func() (RequestID, error)) {
	r, freeFirst := d.md.issue(classes, wildcard, payload, old)
	if len(freeFirst) > 0 {
		d.held = without1(d.held, old)
	}
	d.pending = append(d.pending, &undelivered{id: r.id, freeFirst: freeFirst})
	d.spawn(r, true, f)
}

func without1(ids []RequestID, id RequestID) []RequestID {
	if i := slices.Index(ids, id); i >= 0 {
		return slices.Delete(ids, i, i+1)
	}
	return ids
}

// soleHeld picks a held request the application is alone on, or zero.
func (d *diffDriver) soleHeld() RequestID {
	for _, i := range d.rng.Perm(len(d.held)) {
		if r := d.md.find(d.held[i]); r != nil && r.active == 1 && !r.freed {
			return d.held[i]
		}
	}
	return RequestID{}
}

func (d *diffDriver) step() {
	m, md := d.m, d.md
	switch k := d.rng.Intn(100); {
	case k < 14 && len(d.calls) < 4: // GetLease: join or issue
		set := d.randomSet()
		classes := m.cfg.Mapper.Classes(set)
		if r := md.joinable(classes); r != nil {
			r.active++
			md.stats.Reused++
			d.spawn(r, false, func() (RequestID, error) { return m.GetLease(set) })
		} else {
			d.issue(classes, false, false, RequestID{}, func() (RequestID, error) { return m.GetLease(set) })
		}
	case k < 20 && len(d.calls) < 4:
		classes, payload := m.cfg.Mapper.Classes(d.randomSet()), d.rng.Int()
		d.issue(classes, false, true, RequestID{}, func() (RequestID, error) {
			return m.GetLeaseWithPayload(classes, payload)
		})
	case k < 25 && len(d.calls) < 4:
		if old := d.soleHeld(); old != (RequestID{}) {
			classes := m.cfg.Mapper.Classes(d.randomSet())
			d.issue(classes, false, false, old, func() (RequestID, error) {
				return m.GetLeaseReplacing(classes, old)
			})
		}
	case k < 28 && len(d.calls) < 4:
		var old RequestID
		if d.rng.Intn(2) == 0 {
			old = d.soleHeld()
		}
		d.issue(nil, true, false, old, func() (RequestID, error) { return m.GetLeaseEverything(old) })
	case k < 38: // TryReuse
		set := d.randomSet()
		want := md.holder(m.cfg.Mapper.Classes(set))
		if want != nil && want.blocked {
			want = nil
		}
		id, ok := m.TryReuse(set)
		if ok != (want != nil) || (ok && id != want.id) {
			d.failf("TryReuse(%v) = %v, %t; model holder %+v", set, id, ok, want)
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
				d.failf("%v was never OA-broadcast", u.id)
			}
			r := md.find(u.id)
			if r != nil && (!reflect.DeepEqual(u.req.Classes, r.classes) || u.req.Wildcard != r.wildcard) ||
				!reflect.DeepEqual(u.req.FreeFirst, u.freeFirst) {
				d.failf("broadcast %+v, model %+v freeFirst %v", u.req, r, u.freeFirst)
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
// ended: a call returns once its request is enabled, and fails with
// ErrDeadlock when a state transfer orphaned it.
func (d *diffDriver) resolve() {
	open := d.calls[:0]
	for _, c := range d.calls {
		orphan := d.md.find(c.on.id) != c.on
		if !orphan && !d.md.held(c.on) {
			open = append(open, c)
			continue
		}
		var got diffResult
		select {
		case got = <-c.done:
		case <-time.After(10 * time.Second):
			d.failf("call on %v did not return (orphan=%t)", c.on.id, orphan)
		}
		switch {
		case orphan:
			if !errors.Is(got.err, ErrDeadlock) {
				d.failf("orphaned call on %v returned %v, %v", c.on.id, got.id, got.err)
			}
		case got.err != nil || got.id != c.on.id:
			d.failf("call on %v returned %v, %v", c.on.id, got.id, got.err)
		default:
			if c.fresh {
				d.md.stats.Acquired++
			}
			d.held = append(d.held, got.id)
		}
	}
	d.calls = open
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
			d.failf("after %s: %d calls parked, model %d", event, m.nWaiting.Value(), md.stats.Waiting)
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
		d.failf("after %s: %v", event, indexErr)
	case !reflect.DeepEqual(got, want):
		d.failf("after %s: table\n got  %v\n want %v", event, got, want)
	case !reflect.DeepEqual(gotFreed, md.freed):
		d.failf("after %s: Freed batches\n got  %v\n want %v", event, gotFreed, md.freed)
	case !reflect.DeepEqual(d.payloads, md.payloads):
		d.failf("after %s: payload callbacks\n got  %v\n want %v", event, d.payloads, md.payloads)
	case m.Stats() != md.stats:
		d.failf("after %s: stats\n got  %+v\n want %+v", event, m.Stats(), md.stats)
	case gotEarly != len(md.early):
		d.failf("after %s: %d early releases buffered, model %d", event, gotEarly, len(md.early))
	}
	set := d.randomSet()
	classes := m.cfg.Mapper.Classes(set)
	if got, want := m.HoldsLease(set), md.holder(classes) != nil; got != want {
		d.failf("after %s: HoldsLease(%v) = %t, model %t", event, set, got, want)
	}
	if got, want := m.HasCoverage(classes), md.joinable(classes) != nil; got != want {
		d.failf("after %s: HasCoverage(%v) = %t, model %t", event, set, got, want)
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
		if m.cfg.DeadlockDetection && st.local && isLive && !m.enabledLocked(st) && !slices.Contains(m.waiting, st) {
			return fmt.Errorf("%v waits and is not in waiting", st.req.ID)
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
// schedules of every acquisition form, TryReuse, Finished, Opt- and
// TO-deliveries in any order, early and late releases, view changes and state
// transfers, and after every event compares it with the naive scan model: the
// table (who is enabled, who is blocked, how many transactions each request
// carries), the Freed batches broadcast and the payload callbacks (ids and
// order), all seven Stats counters, and the maintained indexes against the
// request map. It is the semantic gate of the class-indexed table and runs
// under -short.
func TestDifferentialAgainstNaiveModel(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{OptimisticFree: true},
		{DeadlockDetection: true},
		{OptimisticFree: true, DeadlockDetection: true},
	} {
		for seed := int64(1); seed <= 12; seed++ {
			name := fmt.Sprintf("opt=%t/deadlock=%t/seed=%d", cfg.OptimisticFree, cfg.DeadlockDetection, seed)
			t.Run(name, func(t *testing.T) { runDifferential(t, cfg, seed) })
		}
	}
}

func runDifferential(t *testing.T, cfg Config, seed int64) {
	d := &diffDriver{
		t:   t,
		rng: rand.New(rand.NewSource(seed)),
		bus: &diffBus{},
		md:  &model{optFree: cfg.OptimisticFree, early: map[RequestID]bool{}},
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
