package cluster

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/transport"
)

// submitPreferred runs fn at the rendezvous owner of items.
func submitPreferred(c *Cluster, items []string, fn func(*stm.Txn) error) error {
	r := c.Preferred(items)
	if r == nil {
		return core.ErrStopped
	}
	return r.Atomic(fn)
}

// TestRoutedOwnerCrashReroutes crashes the hot item's rendezvous owner
// mid-stream: submissions placed by Preferred must keep committing on the
// survivors without wedging or naming the dead replica, and after the owner
// rejoins the cluster converges on one history.
func TestRoutedOwnerCrashReroutes(t *testing.T) {
	c := newCluster(t, 4, core.Config{Protocol: core.ProtocolALC})
	hot := []string{"counter"}

	submitAll := func(rounds int) int {
		committed := 0
		for i := 0; i < rounds; i++ {
			for origin := 0; origin < c.N(); origin++ {
				if c.Replica(origin) == nil {
					continue // origin itself is the crashed replica
				}
				err := submitPreferred(c, hot, increment("counter"))
				switch {
				case err == nil:
					committed++
				case errors.Is(err, core.ErrEjected) || errors.Is(err, core.ErrStopped):
					// Transient: the target was mid-ejection. Later
					// submissions must still make progress.
				default:
					t.Fatalf("submit (origin=%d): %v", origin, err)
				}
			}
		}
		return committed
	}

	if n := submitAll(30); n == 0 {
		t.Fatal("no commits in warmup")
	}
	if s := c.TotalStats(); s.Lease.ReuseRate() < 0.9 {
		t.Fatalf("cluster lease reuse rate = %.3f with one owner, want >= 0.9 (lease: %+v)",
			s.Lease.ReuseRate(), s.Lease)
	}
	owner := c.Preferred(hot).ID()

	c.Crash(int(owner))

	done := make(chan int, 1)
	go func() { done <- submitAll(40) }()
	var committed int
	select {
	case committed = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("placed submissions wedged after owner crash")
	}
	if committed == 0 {
		t.Fatal("no commits after owner crash")
	}
	if r := c.Preferred(hot); r == nil || r.ID() == owner {
		t.Fatalf("Preferred after the owner crashed = %s, want a survivor", describe(r))
	}

	// Recovery: the owner rejoins via state transfer, takes its keys back,
	// and the cluster converges on a serializable history.
	if err := c.Restart(int(owner)); err != nil {
		t.Fatalf("Restart(%d): %v", owner, err)
	}
	if err := c.Replica(int(owner)).WaitForView(c.N(), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if r := c.Preferred(hot); r == nil || r.ID() != owner {
		t.Fatalf("Preferred after the owner rejoined = %s, want r%d", describe(r), owner)
	}
	if n := submitAll(10); n == 0 {
		t.Fatal("no commits after owner rejoin")
	}
	if err := c.WaitConverged(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if diff := c.CheckHistories(); diff != "" {
		t.Fatalf("history divergence after crash/rejoin: %s", diff)
	}
}

// rendezvousID is rendezvous returning the owner's ID.
func rendezvousID(t *testing.T, items []string, candidates []transport.ID) transport.ID {
	t.Helper()
	i, ok := rendezvous(items, candidates)
	if !ok {
		t.Fatalf("rendezvous(%v, %v) picked no candidate", items, candidates)
	}
	return candidates[i]
}

// TestPreferredMatchesRendezvous pins Preferred to rendezvous over the
// running replica IDs, before and after a crash.
func TestPreferredMatchesRendezvous(t *testing.T) {
	c := newCluster(t, 4, core.Config{Protocol: core.ProtocolALC})
	for _, items := range [][]string{{"a"}, {"b"}, {"a", "b"}, {"counter"}} {
		want := rendezvousID(t, items, []transport.ID{0, 1, 2, 3})
		if got := c.Preferred(items); got == nil || got.ID() != want {
			t.Fatalf("Preferred(%v) = %s, want r%d", items, describe(got), want)
		}
	}
	c.Crash(2)
	want := rendezvousID(t, []string{"a"}, []transport.ID{0, 1, 3})
	if got := c.Preferred([]string{"a"}); got == nil || got.ID() != want {
		t.Fatalf("Preferred after crash = %s, want r%d", describe(got), want)
	}
}

func TestRendezvousStability(t *testing.T) {
	all := []transport.ID{0, 1, 2, 3}
	seen := make(map[transport.ID]bool)
	for _, item := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		owner := rendezvousID(t, []string{item}, all)
		seen[owner] = true
		// Removing the owner must move the key.
		var without []transport.ID
		for _, id := range all {
			if id != owner {
				without = append(without, id)
			}
		}
		if moved := rendezvousID(t, []string{item}, without); moved == owner {
			t.Fatalf("item %q: owner did not change after removing it", item)
		}
		if again := rendezvousID(t, []string{item}, all); again != owner {
			t.Fatalf("item %q: not deterministic", item)
		}
	}
	if len(seen) < 2 {
		t.Fatalf("rendezvous mapped 8 items to %d replicas; want spread", len(seen))
	}
	if _, ok := rendezvous([]string{"x"}, nil); ok {
		t.Fatalf("empty candidate set must report !ok")
	}
}

// TestRendezvousKeepsOwnerWhenNonOwnerLeaves: removing any candidate other
// than the owner, or reordering the candidates, leaves the key where it was,
// so a membership change moves only the keys of the member that changed.
func TestRendezvousKeepsOwnerWhenNonOwnerLeaves(t *testing.T) {
	all := []transport.ID{0, 1, 2, 3, 4}
	for _, item := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		owner := rendezvousID(t, []string{item}, all)
		for _, gone := range all {
			if gone == owner {
				continue
			}
			rest := slices.DeleteFunc(slices.Clone(all), func(id transport.ID) bool { return id == gone })
			if got := rendezvousID(t, []string{item}, rest); got != owner {
				t.Fatalf("item %q: removing non-owner %d moved it from %d to %d", item, gone, owner, got)
			}
			slices.Reverse(rest)
			if got := rendezvousID(t, []string{item}, rest); got != owner {
				t.Fatalf("item %q: reordering the candidates moved it from %d to %d", item, owner, got)
			}
		}
	}
}

// TestRendezvousIgnoresItemOrder: the owner of an item set does not depend on
// the order its items are declared in.
func TestRendezvousIgnoresItemOrder(t *testing.T) {
	all := []transport.ID{0, 1, 2, 3}
	sets := [][]string{{"a", "b"}, {"acct-3", "acct-17", "acct-40"}, {"x", "y", "z", "w"}}
	for _, items := range sets {
		owner := rendezvousID(t, items, all)
		perm := slices.Clone(items)
		for i := 0; i < len(perm); i++ {
			perm = append(perm[1:], perm[0]) // rotate
			if got := rendezvousID(t, perm, all); got != owner {
				t.Fatalf("items %v map to %d but %v map to %d", items, owner, perm, got)
			}
		}
		slices.Reverse(perm)
		if got := rendezvousID(t, perm, all); got != owner {
			t.Fatalf("items %v map to %d but %v map to %d", items, owner, perm, got)
		}
	}
}

// TestRendezvousSpreadsItemSetsEvenly: unrelated item sets spread over the
// candidates within a few percent of an even share, so placement does not
// pile the cluster's load onto one replica.
func TestRendezvousSpreadsItemSetsEvenly(t *testing.T) {
	all := []transport.ID{0, 1, 2, 3}
	const sets = 4000
	owned := make(map[transport.ID]int)
	for i := 0; i < sets; i++ {
		owned[rendezvousID(t, []string{fmt.Sprintf("acct-%d", 2*i), fmt.Sprintf("acct-%d", 2*i+1)}, all)]++
	}
	even := sets / len(all)
	for _, id := range all {
		if n := owned[id]; n < even*85/100 || n > even*115/100 {
			t.Fatalf("replica %d owns %d of %d item sets, want %d ±15%% (%v)", id, n, sets, even, owned)
		}
	}
}

// describe renders a replica for failure messages.
func describe(r *core.Replica) string {
	if r == nil {
		return "nil"
	}
	return fmt.Sprintf("r%d (primary=%t)", r.ID(), r.InPrimary())
}

// waitPreferred polls until Preferred(items) satisfies ok.
func waitPreferred(t *testing.T, c *Cluster, items []string, what string, ok func(*core.Replica) bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		r := c.Preferred(items)
		if ok(r) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("Preferred(%v) = %s: %s", items, describe(r), what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPreferredSkipsEjectedOwner partitions the rendezvous owner of a key
// away from the rest: once it is ejected from the primary component it cannot
// commit updates, so Preferred must name a primary member that can, and give
// the key back to the owner after the heal readmits it.
func TestPreferredSkipsEjectedOwner(t *testing.T) {
	c := newCluster(t, 4, core.Config{Protocol: core.ProtocolALC})
	items := []string{"counter"}
	owner := c.Preferred(items).ID()
	var rest []int
	for i := 0; i < c.N(); i++ {
		if i != int(owner) {
			rest = append(rest, i)
		}
	}

	c.Partition([]int{int(owner)}, rest)
	waitPreferred(t, c, items, "still the ejected owner", func(r *core.Replica) bool {
		return r != nil && r.ID() != owner && r.InPrimary()
	})
	if err := submitPreferred(c, items, increment("counter")); err != nil {
		t.Fatalf("commit at the preferred replica during the partition: %v", err)
	}

	c.Heal()
	waitPreferred(t, c, items, "owner not restored after the heal", func(r *core.Replica) bool {
		return r != nil && r.ID() == owner && r.InPrimary()
	})
	if err := c.WaitConverged(20 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestPreferredFallsBackWithoutPrimary: when no running replica is in the
// primary component (an even split), Preferred still names a running replica
// rather than nil, and nil only once none is running.
func TestPreferredFallsBackWithoutPrimary(t *testing.T) {
	c := newCluster(t, 4, core.Config{Protocol: core.ProtocolALC})
	items := []string{"a"}
	c.Partition([]int{0, 1}, []int{2, 3})
	deadline := time.Now().Add(20 * time.Second)
	for {
		inPrimary := 0
		for _, r := range c.Replicas() {
			if r.InPrimary() {
				inPrimary++
			}
		}
		if inPrimary == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d replicas still in the primary after an even split", inPrimary)
		}
		time.Sleep(10 * time.Millisecond)
	}
	want := rendezvousID(t, items, []transport.ID{0, 1, 2, 3})
	if r := c.Preferred(items); r == nil || r.ID() != want {
		t.Fatalf("Preferred without a primary = %s, want r%d over every running replica", describe(r), want)
	}
	for i := 0; i < c.N(); i++ {
		c.Crash(i)
	}
	if r := c.Preferred(items); r != nil {
		t.Fatalf("Preferred with no running replica = %s, want nil", describe(r))
	}
}

// TestRendezvousPinnedOwners pins the owner rendezvous picks for fixed item
// sets and candidate lists. Its item hash is lease.Mapper's FNV-1a, so a
// change to either that moves placement shows here.
func TestRendezvousPinnedOwners(t *testing.T) {
	for _, tc := range []struct {
		items      []string
		candidates []transport.ID
		want       transport.ID
	}{
		{[]string{"a"}, []transport.ID{0, 1, 2}, 1},
		{[]string{"acct:1"}, []transport.ID{0, 1, 2}, 2},
		{[]string{"x", "y", "z"}, []transport.ID{0, 1, 2}, 1},
		{[]string{""}, []transport.ID{0, 1, 2}, 1},
		{[]string{"a"}, []transport.ID{0, 1, 2, 3, 4}, 4},
		{[]string{"acct:1", "acct:2"}, []transport.ID{0, 1, 2, 3, 4}, 2},
		{[]string{"x", "y", "z"}, []transport.ID{0, 1, 2, 3, 4}, 3},
		{[]string{"k"}, []transport.ID{0, 1, 2, 3, 4}, 1},
		{[]string{""}, []transport.ID{0, 1, 2, 3, 4}, 3},
		{[]string{"x", "y", "z"}, []transport.ID{4, 2, 7}, 4},
		{[]string{"k"}, []transport.ID{4, 2, 7}, 7},
		{[]string{"node/17", "node/3"}, []transport.ID{4, 2, 7}, 2},
	} {
		if got := rendezvousID(t, tc.items, tc.candidates); got != tc.want {
			t.Errorf("rendezvous(%q, %v) = %d, want %d", tc.items, tc.candidates, got, tc.want)
		}
	}
}
