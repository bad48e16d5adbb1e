//go:build !race

package core

import (
	"testing"
	"time"

	"github.com/alcstm/alc/internal/stm"
)

// Allocation budgets of the lease-held commit path. The race detector
// allocates on its own, so they run only without it.

// TestAllocBudgetDurableAppend: once the retained ring is full and the
// log's frame has grown, logging a one-entry batch allocates nothing.
func TestAllocBudgetDurableAppend(t *testing.T) {
	d, err := newDurable(DurabilityConfig{Dir: t.TempDir(), Fsync: "off", SnapshotEvery: -1, Retain: 8}, stm.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	entries := []applyWSEntry{{TxnID: stm.TxnID{Replica: 1}, WS: stm.WriteSet{{Box: "acct:1", Value: 7}}}}
	appendNext := func() {
		entries[0].TxnID.Seq++
		if fresh := d.append(entries); len(fresh) != 1 {
			t.Fatalf("append kept %d of 1 entries", len(fresh))
		}
	}
	for range 16 {
		appendNext()
	}
	if got := testing.AllocsPerRun(100, appendNext); got != 0 {
		t.Fatalf("a one-entry durable append allocates %v times, want 0", got)
	}
	if s := d.stats(); s.Errors != 0 {
		t.Fatalf("%d durability errors", s.Errors)
	}
}

// TestAllocBudgetLeaseReuse: a transaction that reuses a held lease
// computes its conflict classes once, and that is the only allocation of
// the acquisition and its release.
func TestAllocBudgetLeaseReuse(t *testing.T) {
	r := newTestReplica(t)
	if err := r.WaitForView(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rs := stm.ReadSet{{Box: "a"}, {Box: "b"}}
	ws := stm.WriteSet{{Box: "a", Value: 1}, {Box: "b", Value: 2}}
	id, err := r.lm.GetLeaseClasses(r.dataClasses(rs, ws))
	if err != nil {
		t.Fatal(err)
	}
	r.lm.Finished(id)
	reuse := func() {
		id, ok := r.lm.TryReuseClasses(r.dataClasses(rs, ws))
		if !ok {
			t.Fatal("held lease not reused")
		}
		r.lm.Finished(id)
	}
	if got := testing.AllocsPerRun(100, reuse); got != 1 {
		t.Fatalf("an acquire-by-reuse allocates %v times, want 1 (its class computation)", got)
	}
}
