//go:build !race

package core

import (
	"runtime"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/lease"
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

// TestAllocBudgetDeltaWindowFull: once the delta window is full and has
// cycled through its segments, retaining an entry allocates nothing: the
// encoding goes through the reused scratch buffer into a recycled segment.
func TestAllocBudgetDeltaWindowFull(t *testing.T) {
	d, err := newDurable(DurabilityConfig{Retain: 64}, stm.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	// Fixed-shape entries: the sequence numbers keep one varint length, so
	// the scratch buffer never has to grow.
	e := applyWSEntry{TxnID: stm.TxnID{Replica: 1, Seq: 1 << 21}, WS: stm.WriteSet{{Box: "acct:1", Value: 7}}}
	push := func() {
		e.TxnID.Seq++
		d.mu.Lock()
		d.pushRetainedLocked(e)
		d.mu.Unlock()
	}
	// Enough pushes to fill several segments, so the window has given one
	// back for reuse.
	const segmentful = windowSegment / 8
	for range 4 * segmentful {
		push()
	}
	// testing.AllocsPerRun rounds down, and a segment allocation comes once
	// per few hundred pushes: count every allocation of ten segments' worth.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 10 * segmentful {
		push()
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != 0 {
		t.Fatalf("%d pushes into a full delta window allocated %d times, want 0", 10*segmentful, got)
	}
}

// TestAllocBudgetLeaseReuse: a transaction that reuses a held lease through
// Establish computes its conflict classes once, and that is the only
// allocation of the acquisition and its release.
func TestAllocBudgetLeaseReuse(t *testing.T) {
	r := newTestReplica(t)
	if err := r.WaitForView(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rs := stm.ReadSet{{Box: "a"}, {Box: "b"}}
	ws := stm.WriteSet{{Box: "a", Value: 1}, {Box: "b", Value: 2}}
	id, err := r.lm.Establish(lease.RequestID{}, r.dataClasses(rs, ws), false)
	if err != nil {
		t.Fatal(err)
	}
	r.lm.Finished(id)
	reuse := func() {
		// With the miss flag set, anything but a reuse returns at once.
		id, err := r.lm.Establish(lease.RequestID{}, r.dataClasses(rs, ws), true)
		if err != nil {
			t.Fatalf("held lease not reused: %v", err)
		}
		r.lm.Finished(id)
	}
	if got := testing.AllocsPerRun(100, reuse); got != 1 {
		t.Fatalf("an acquire-by-reuse allocates %v times, want 1 (its class computation)", got)
	}
}
