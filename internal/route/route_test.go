package route

import (
	"testing"

	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/trace"
	"github.com/alcstm/alc/internal/transport"
)

var mapper = lease.Mapper{} // item-granularity classes, as the replicas use

func leaseEvent(op lease.TransitionOp, owner transport.ID, pos uint64, items ...string) trace.Event {
	return trace.Event{
		Kind:    trace.KindLease,
		Replica: owner,
		Payload: lease.Transition{
			Op:      op,
			ID:      lease.RequestID{Proc: owner, Seq: pos},
			Owner:   owner,
			Classes: mapper.Classes(items),
			Pos:     pos,
		},
	}
}

func viewEvent(id uint64, members []transport.ID, rejoined ...transport.ID) trace.Event {
	return trace.Event{
		Kind:    trace.KindView,
		Payload: trace.ViewChange{ID: id, Members: members, Rejoined: rejoined, Primary: true},
	}
}

func newRouter(n int) *Router {
	r := New(mapper)
	ids := make([]transport.ID, n)
	for i := range ids {
		ids[i] = transport.ID(i)
	}
	r.SetLive(ids)
	return r
}

func TestColdClassesUseRendezvous(t *testing.T) {
	r := newRouter(4)
	target, d := r.Target(2, []string{"a", "b"})
	if d != DecisionRendezvous {
		t.Fatalf("decision = %v, want rendezvous", d)
	}
	want, _ := Rendezvous([]string{"a", "b"}, []transport.ID{0, 1, 2, 3})
	if target != want {
		t.Fatalf("target = %v, want rendezvous pick %v", target, want)
	}
	// Deterministic across routers.
	if t2, _ := newRouter(4).Target(0, []string{"a", "b"}); t2 != target {
		t.Fatalf("rendezvous not deterministic: %v vs %v", t2, target)
	}
}

func TestGrantEstablishesAffinity(t *testing.T) {
	r := newRouter(4)
	r.TraceEvent(leaseEvent(lease.OpGrant, 3, 7, "a", "b"))
	target, d := r.Target(0, []string{"a", "b"})
	if d != DecisionAffinity || target != 3 {
		t.Fatalf("Target = (%v, %v), want (3, affinity)", target, d)
	}
	// Subset of the granted items still routes to the owner.
	if target, d = r.Target(1, []string{"a"}); d != DecisionAffinity || target != 3 {
		t.Fatalf("subset Target = (%v, %v), want (3, affinity)", target, d)
	}
}

func TestDisagreeingOwnersFallBackToLocal(t *testing.T) {
	r := newRouter(4)
	r.TraceEvent(leaseEvent(lease.OpGrant, 1, 5, "a"))
	r.TraceEvent(leaseEvent(lease.OpGrant, 2, 6, "b"))
	target, d := r.Target(3, []string{"a", "b"})
	if d != DecisionLocal || target != 3 {
		t.Fatalf("Target = (%v, %v), want (3, local)", target, d)
	}
}

func TestPartialCoverageRoutesToCoveredOwner(t *testing.T) {
	r := newRouter(4)
	r.TraceEvent(leaseEvent(lease.OpGrant, 1, 5, "a"))
	// "b" is cold — no counter-evidence — so the owner of "a"'s lease is
	// still strictly the best host for the pair.
	target, d := r.Target(3, []string{"a", "b"})
	if d != DecisionAffinity || target != 1 {
		t.Fatalf("Target = (%v, %v), want (1, affinity)", target, d)
	}
}

func TestFreeGoesColdAndStaleFreeIsIgnored(t *testing.T) {
	r := newRouter(4)
	r.TraceEvent(leaseEvent(lease.OpGrant, 1, 5, "a"))
	r.TraceEvent(leaseEvent(lease.OpFree, 1, 5, "a"))
	if _, d := r.Target(0, []string{"a"}); d != DecisionRendezvous {
		t.Fatalf("decision after free = %v, want rendezvous", d)
	}
	// New grant at a later position, then a duplicate of the OLD free (another
	// replica's emission arriving late): the newer grant must survive.
	r.TraceEvent(leaseEvent(lease.OpGrant, 2, 9, "a"))
	r.TraceEvent(leaseEvent(lease.OpFree, 1, 5, "a"))
	target, d := r.Target(0, []string{"a"})
	if d != DecisionAffinity || target != 2 {
		t.Fatalf("Target = (%v, %v), want (2, affinity)", target, d)
	}
}

func TestStaleGrantDoesNotOverwriteNewer(t *testing.T) {
	r := newRouter(4)
	r.TraceEvent(leaseEvent(lease.OpGrant, 2, 9, "a"))
	r.TraceEvent(leaseEvent(lease.OpGrant, 1, 5, "a")) // duplicate emission, older
	target, d := r.Target(0, []string{"a"})
	if d != DecisionAffinity || target != 2 {
		t.Fatalf("Target = (%v, %v), want (2, affinity)", target, d)
	}
}

func TestStealDropsTheOldOwner(t *testing.T) {
	r := newRouter(4)
	r.TraceEvent(leaseEvent(lease.OpGrant, 1, 5, "a"))
	ev := leaseEvent(lease.OpSteal, 1, 5, "a")
	p := ev.Payload.(lease.Transition)
	p.By = 2
	ev.Payload = p
	r.TraceEvent(ev)
	if _, d := r.Target(0, []string{"a"}); d == DecisionAffinity {
		t.Fatalf("stolen class still routed by affinity")
	}
	// The thief's own grant (later position) then takes over.
	r.TraceEvent(leaseEvent(lease.OpGrant, 2, 6, "a"))
	target, d := r.Target(0, []string{"a"})
	if d != DecisionAffinity || target != 2 {
		t.Fatalf("Target = (%v, %v), want (2, affinity)", target, d)
	}
}

func TestViewChangeEvictsCrashedOwner(t *testing.T) {
	r := newRouter(4)
	r.TraceEvent(leaseEvent(lease.OpGrant, 3, 7, "a"))
	r.TraceEvent(viewEvent(2, []transport.ID{0, 1, 2})) // 3 crashed
	target, d := r.Target(0, []string{"a"})
	if d == DecisionAffinity {
		t.Fatalf("crashed owner still routed by affinity (target %v)", target)
	}
	if target == 3 {
		t.Fatalf("routed to crashed replica 3")
	}
	s := r.Stats()
	if s.Evictions == 0 {
		t.Fatalf("eviction not counted: %+v", s)
	}
	// A grant from the new owner repopulates the class.
	r.TraceEvent(leaseEvent(lease.OpGrant, 1, 9, "a"))
	if target, d = r.Target(0, []string{"a"}); d != DecisionAffinity || target != 1 {
		t.Fatalf("Target = (%v, %v), want (1, affinity)", target, d)
	}
}

func TestViewChangeEvictsRebornOwner(t *testing.T) {
	r := newRouter(3)
	r.TraceEvent(leaseEvent(lease.OpGrant, 2, 7, "a"))
	// 2 crashed and rejoined within one view: member again, but its old
	// incarnation's leases were purged.
	r.TraceEvent(viewEvent(3, []transport.ID{0, 1, 2}, 2))
	if _, d := r.Target(0, []string{"a"}); d == DecisionAffinity {
		t.Fatalf("reborn owner's stale lease still routed by affinity")
	}
}

func TestStaleViewIgnored(t *testing.T) {
	r := newRouter(4)
	r.TraceEvent(viewEvent(5, []transport.ID{0, 1}))
	r.TraceEvent(viewEvent(3, []transport.ID{0, 1, 2, 3})) // late duplicate
	r.TraceEvent(leaseEvent(lease.OpGrant, 2, 4, "a"))
	// 2 is not in the current (ID 5) view: its grant must not route.
	if target, d := r.Target(0, []string{"a"}); d == DecisionAffinity {
		t.Fatalf("Target = (%v, %v): dead owner routed", target, d)
	}
}

func TestEvictImmediatelyReroutes(t *testing.T) {
	r := newRouter(4)
	r.TraceEvent(leaseEvent(lease.OpGrant, 3, 7, "a"))
	r.Evict(3)
	target, d := r.Target(0, []string{"a"})
	if d == DecisionAffinity || target == 3 {
		t.Fatalf("Target = (%v, %v) after Evict(3)", target, d)
	}
}

func TestWildcardGrantsCarryNoAffinity(t *testing.T) {
	r := newRouter(4)
	r.TraceEvent(trace.Event{Kind: trace.KindLease, Payload: lease.Transition{
		Op: lease.OpGrant, Owner: 1, Pos: 5, Wildcard: true,
	}})
	if _, d := r.Target(0, []string{"a"}); d != DecisionRendezvous {
		t.Fatalf("decision = %v, want rendezvous (wildcard ignored)", d)
	}
}

func TestRendezvousStability(t *testing.T) {
	all := []transport.ID{0, 1, 2, 3}
	seen := make(map[transport.ID]bool)
	for _, item := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		owner, ok := Rendezvous([]string{item}, all)
		if !ok {
			t.Fatalf("no candidate picked")
		}
		seen[owner] = true
		// Removing an unrelated candidate must not move this key.
		var without []transport.ID
		for _, id := range all {
			if id != owner {
				without = append(without, id)
			}
		}
		moved, _ := Rendezvous([]string{item}, without)
		if moved == owner {
			t.Fatalf("item %q: owner did not change after removing it", item)
		}
		again, _ := Rendezvous([]string{item}, all)
		if again != owner {
			t.Fatalf("item %q: not deterministic", item)
		}
	}
	if len(seen) < 2 {
		t.Fatalf("rendezvous mapped 8 items to %d replicas; want spread", len(seen))
	}
	if _, ok := Rendezvous([]string{"x"}, nil); ok {
		t.Fatalf("empty candidate set must report !ok")
	}
}

func TestStatsDecisionMix(t *testing.T) {
	r := newRouter(2)
	r.TraceEvent(leaseEvent(lease.OpGrant, 1, 3, "hot"))
	r.Target(0, []string{"hot"})  // affinity
	r.Target(0, []string{"cold"}) // rendezvous
	r.TraceEvent(leaseEvent(lease.OpGrant, 0, 4, "x"))
	r.Target(1, []string{"hot", "x"}) // disagree → local
	s := r.Stats()
	if s.Affinity != 1 || s.Rendezvous != 1 || s.Local != 1 {
		t.Fatalf("decision mix = %+v, want 1/1/1", s)
	}
	if s.Tracked != 2 {
		t.Fatalf("Tracked = %d, want 2", s.Tracked)
	}
}

// TestViewChangeVsStealRaceOnSameClass interleaves a view change (the old
// owner leaves the primary component) with a steal of the same class in both
// orders. The trace stream gives no cross-replica ordering between the two,
// so the router must converge to the thief either way — and must never route
// to the departed owner in between.
func TestViewChangeVsStealRaceOnSameClass(t *testing.T) {
	steal := func(owner transport.ID, pos uint64, by transport.ID, item string) trace.Event {
		ev := leaseEvent(lease.OpSteal, owner, pos, item)
		p := ev.Payload.(lease.Transition)
		p.By = by
		ev.Payload = p
		return ev
	}

	// Order A: the view change lands first (owner 3 crashes mid-steal), then
	// the steal duplicate emitted by a surviving replica arrives for an entry
	// that is already gone.
	r := newRouter(4)
	r.TraceEvent(leaseEvent(lease.OpGrant, 3, 5, "a"))
	r.TraceEvent(viewEvent(2, []transport.ID{0, 1, 2}))
	if target, d := r.Target(0, []string{"a"}); d == DecisionAffinity || target == 3 {
		t.Fatalf("order A: routed to departed owner (target %v, %v)", target, d)
	}
	r.TraceEvent(steal(3, 5, 1, "a")) // late duplicate; entry already evicted
	r.TraceEvent(leaseEvent(lease.OpGrant, 1, 6, "a"))
	if target, d := r.Target(0, []string{"a"}); d != DecisionAffinity || target != 1 {
		t.Fatalf("order A: Target = (%v, %v), want (1, affinity)", target, d)
	}

	// Order B: the steal and the thief's grant land first, THEN the view
	// change reporting the old owner's departure. The eviction scan must
	// only remove entries still owned by the departed replica — the thief's
	// fresher entry survives.
	r = newRouter(4)
	r.TraceEvent(leaseEvent(lease.OpGrant, 3, 5, "a"))
	r.TraceEvent(steal(3, 5, 1, "a"))
	r.TraceEvent(leaseEvent(lease.OpGrant, 1, 6, "a"))
	r.TraceEvent(viewEvent(2, []transport.ID{0, 1, 2}))
	if target, d := r.Target(0, []string{"a"}); d != DecisionAffinity || target != 1 {
		t.Fatalf("order B: Target = (%v, %v), want (1, affinity)", target, d)
	}

	// In both orders a late stale steal (old position) must not erase the
	// thief's entry.
	r.TraceEvent(steal(3, 5, 1, "a"))
	if target, d := r.Target(0, []string{"a"}); d != DecisionAffinity || target != 1 {
		t.Fatalf("stale steal erased thief: Target = (%v, %v)", target, d)
	}
}
