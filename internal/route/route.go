// Package route implements locality-aware transaction routing: the §6
// "future work" direction of the paper, after Hendler et al.'s observation
// that under high lease affinity it is cheaper to ship the TRANSACTION to
// the lease than the lease to the transaction.
//
// The Router keeps a live conflict-class → lease-owner affinity map fed by
// the protocol's own trace stream (it is a trace.Sink): every lease grant,
// reuse, release and steal emitted by any replica's lease manager updates
// the map, and primary-component view changes evict owners that crashed or
// were reborn. Given a transaction's declared item set, Target picks the
// replica most likely to already hold the covering leases — sending the
// transaction there turns a lease rotation (one atomic broadcast plus a
// release per commit) into a zero-communication lease reuse. Cold classes
// fall back to rendezvous hashing (stable, evenly spread, and self-
// consistent: once traffic lands there the affinity map takes over), and
// classes with conflicting ownership evidence fall back to local execution
// rather than guessing.
//
// Convergence. Every replica emits a grant event for every TO-delivered
// request, so the router sees up to N duplicates of each transition — but
// each carries the request's total-order position, which is identical at
// every replica. Updates apply only when their position is not older than
// the entry's, so the map converges to the total order no matter how the
// duplicate emissions interleave.
//
// The Router's TraceEvent runs inline on emitting goroutines — inside the
// lease manager's critical section for lease transitions — so it only
// touches its own map and never calls back into the protocol stack.
package route

import (
	"sync"
	"sync/atomic"

	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/trace"
	"github.com/alcstm/alc/internal/transport"
)

// Decision says how a routing target was chosen.
type Decision uint8

const (
	// DecisionAffinity: every conflict class of the item set has a live,
	// unreleased lease owner and they all agree — the transaction migrates
	// to that owner's retained leases.
	DecisionAffinity Decision = iota + 1
	// DecisionRendezvous: no live ownership evidence (cold classes) — the
	// stable rendezvous hash picks the owner-to-be.
	DecisionRendezvous
	// DecisionLocal: conflicting or partial ownership evidence — confidence
	// is low, so the transaction executes at its origin and the lease
	// protocol resolves ownership.
	DecisionLocal
)

var decisionNames = [...]string{
	DecisionAffinity:   "affinity",
	DecisionRendezvous: "rendezvous",
	DecisionLocal:      "local",
}

func (d Decision) String() string {
	if int(d) < len(decisionNames) && decisionNames[d] != "" {
		return decisionNames[d]
	}
	return "unknown"
}

// Stats is a point-in-time snapshot of the router's counters.
type Stats struct {
	// Decision mix of Target calls.
	Affinity, Rendezvous, Local int64
	// Updates is the number of affinity-map entry writes applied from the
	// trace stream (stale duplicates excluded); Evictions counts entries
	// dropped because their owner left the view or was explicitly evicted.
	Updates, Evictions int64
	// Tracked is the number of conflict classes currently holding a live
	// (non-released) ownership entry.
	Tracked int
}

// entry is the affinity record of one conflict class. pos is the total-order
// position of the request the evidence came from: identical at every replica,
// so the newest evidence wins deterministically across duplicate emissions.
type entry struct {
	owner transport.ID
	pos   uint64
	freed bool
}

// Router is the affinity map plus the decision procedure. Create with New,
// attach to the cluster's tracer (trace.Tracer.Attach), and call Target per
// transaction. Safe for concurrent use.
type Router struct {
	mapper lease.Mapper

	mu      sync.Mutex
	classes map[lease.ConflictClass]entry
	live    map[transport.ID]bool
	viewID  uint64

	nAffinity   atomic.Int64
	nRendezvous atomic.Int64
	nLocal      atomic.Int64
	nUpdates    atomic.Int64
	nEvictions  atomic.Int64
}

var _ trace.Sink = (*Router)(nil)

// New creates a router using the same item → conflict-class mapper the lease
// managers use (they must agree, or the affinity evidence is about different
// classes than the decision).
func New(mapper lease.Mapper) *Router {
	return &Router{
		mapper:  mapper,
		classes: make(map[lease.ConflictClass]entry),
		live:    make(map[transport.ID]bool),
	}
}

// SetLive seeds the live-replica set before the first view change arrives
// (the initial full view is installed before any tracer sink sees it when
// the router is attached to an already-running cluster).
func (r *Router) SetLive(ids []transport.ID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.live = make(map[transport.ID]bool, len(ids))
	for _, id := range ids {
		r.live[id] = true
	}
}

// TraceEvent feeds the affinity map. It runs inline on the emitting
// goroutine (for lease transitions: inside the lease manager's lock), so it
// must stay cheap and must never call back into the protocol stack.
func (r *Router) TraceEvent(e trace.Event) {
	switch e.Kind {
	case trace.KindLease:
		t, ok := e.Payload.(lease.Transition)
		if !ok || t.Wildcard || t.Pos == 0 {
			// Wildcard leases cover everything and are transient escalations:
			// they carry no per-class affinity. Undelivered requests (Pos 0)
			// have no total-order identity yet.
			return
		}
		r.applyTransition(t)
	case trace.KindView:
		v, ok := e.Payload.(trace.ViewChange)
		if !ok || !v.Primary {
			return
		}
		r.applyView(v)
	}
}

func (r *Router) applyTransition(t lease.Transition) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch t.Op {
	case lease.OpGrant, lease.OpReuse:
		for _, cc := range t.Classes {
			cur, ok := r.classes[cc]
			if ok && cur.pos > t.Pos {
				continue // newer evidence already applied
			}
			if ok && cur.pos == t.Pos && cur.freed {
				continue // a free of this very request was already seen
			}
			r.classes[cc] = entry{owner: t.Owner, pos: t.Pos}
			r.nUpdates.Add(1)
		}
	case lease.OpFree, lease.OpPurge, lease.OpSteal:
		// The class goes cold (free/purge) or the lease is leaving its owner
		// (steal): drop the affinity claim, but only if the evidence is about
		// the request currently backing the entry — a release of an older
		// request must not erase a newer grant.
		for _, cc := range t.Classes {
			cur, ok := r.classes[cc]
			if !ok || cur.pos != t.Pos || cur.owner != t.Owner {
				continue
			}
			cur.freed = true
			r.classes[cc] = cur
			r.nUpdates.Add(1)
		}
	}
}

func (r *Router) applyView(v trace.ViewChange) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v.ID < r.viewID {
		return
	}
	r.viewID = v.ID
	r.live = make(map[transport.ID]bool, len(v.Members))
	for _, id := range v.Members {
		r.live[id] = true
	}
	// A reborn member is live but its previous incarnation's leases were
	// purged; its old affinity entries are as dead as a crashed owner's.
	reborn := make(map[transport.ID]bool, len(v.Rejoined))
	for _, id := range v.Rejoined {
		reborn[id] = true
	}
	for cc, e := range r.classes {
		if !r.live[e.owner] || reborn[e.owner] {
			delete(r.classes, cc)
			r.nEvictions.Add(1)
		}
	}
}

// Evict drops a replica from the live set and removes its affinity entries
// immediately. Callers use it when a routed submission finds the target
// already gone — the view change carrying the same fact may still be in
// flight, and re-routing must not wedge on it.
func (r *Router) Evict(owner transport.ID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.live, owner)
	for cc, e := range r.classes {
		if e.owner == owner {
			delete(r.classes, cc)
			r.nEvictions.Add(1)
		}
	}
}

// Target picks the replica that should execute a transaction over the given
// items. origin is the replica the transaction arrived at; it is returned
// (with DecisionLocal) when the affinity evidence is conflicting, since a
// wrong migration costs a round-trip AND a lease rotation, while local
// execution costs at most the rotation.
func (r *Router) Target(origin transport.ID, items []string) (transport.ID, Decision) {
	classes := r.mapper.Classes(items)

	r.mu.Lock()
	var (
		owner     transport.ID
		haveOwner bool
		disagree  bool
		covered   int
	)
	for _, cc := range classes {
		e, ok := r.classes[cc]
		if !ok || e.freed || !r.live[e.owner] {
			continue
		}
		covered++
		if !haveOwner {
			owner, haveOwner = e.owner, true
		} else if e.owner != owner {
			disagree = true
		}
	}
	var liveIDs []transport.ID
	if covered == 0 {
		liveIDs = make([]transport.ID, 0, len(r.live))
		for id := range r.live {
			liveIDs = append(liveIDs, id)
		}
	}
	r.mu.Unlock()

	switch {
	case disagree:
		// Conflicting evidence: two replicas hold parts of the item set and
		// either migration chases only a subset of the leases. Low
		// confidence — stay home and let the lease protocol resolve it.
		r.nLocal.Add(1)
		return origin, DecisionLocal
	case haveOwner:
		// All covered classes agree. Classes with no evidence are cold: their
		// leases cost one acquisition wherever the transaction runs, so the
		// agreed owner — who already holds the hot ones — is strictly the
		// best host even under partial coverage.
		r.nAffinity.Add(1)
		return owner, DecisionAffinity
	default:
		if target, ok := Rendezvous(items, liveIDs); ok {
			r.nRendezvous.Add(1)
			return target, DecisionRendezvous
		}
		// No live replicas known (startup, before SetLive/first view):
		// degenerate to local.
		r.nLocal.Add(1)
		return origin, DecisionLocal
	}
}

// Stats returns a snapshot of the router's counters.
func (r *Router) Stats() Stats {
	r.mu.Lock()
	tracked := 0
	for _, e := range r.classes {
		if !e.freed && r.live[e.owner] {
			tracked++
		}
	}
	r.mu.Unlock()
	return Stats{
		Affinity:   r.nAffinity.Load(),
		Rendezvous: r.nRendezvous.Load(),
		Local:      r.nLocal.Load(),
		Updates:    r.nUpdates.Load(),
		Evictions:  r.nEvictions.Load(),
		Tracked:    tracked,
	}
}

// Owner reports the current live affinity owner of the conflict classes of
// items, if they agree (diagnostics and tests).
func (r *Router) Owner(items []string) (transport.ID, bool) {
	classes := r.mapper.Classes(items)
	r.mu.Lock()
	defer r.mu.Unlock()
	var (
		owner transport.ID
		have  bool
	)
	for _, cc := range classes {
		e, ok := r.classes[cc]
		if !ok || e.freed || !r.live[e.owner] {
			return 0, false
		}
		if !have {
			owner, have = e.owner, true
		} else if e.owner != owner {
			return 0, false
		}
	}
	return owner, have
}

// Rendezvous picks a stable owner for an item set among candidates using
// highest-random-weight hashing keyed by the smallest item hash: any
// overlap-heavy family of item sets sharing its hottest item maps to one
// owner, the assignment survives membership changes for unaffected keys,
// and unrelated item sets spread evenly. ok is false when candidates is
// empty.
func Rendezvous(items []string, candidates []transport.ID) (_ transport.ID, ok bool) {
	if len(candidates) == 0 {
		return 0, false
	}
	var key uint64
	for i, it := range items {
		h := fnv64(it)
		if i == 0 || h < key {
			key = h
		}
	}
	var (
		best  transport.ID
		bestW uint64
	)
	for i, id := range candidates {
		w := mix64(key ^ (uint64(id) + 0x9e3779b97f4a7c15))
		if i == 0 || w > bestW {
			best, bestW = id, w
		}
	}
	return best, true
}

// fnv64 hashes a string (FNV-1a).
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// mix64 is a 64-bit finalizer (splitmix64) giving rendezvous weights.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
