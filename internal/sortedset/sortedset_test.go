package sortedset

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/wire"
)

// localSet runs the set against a plain local store with auto-commit
// transactions (the replication layers are exercised by the cluster tests).
type localSet struct {
	t     *testing.T
	s     *Set
	store *stm.Store
	seq   uint64
}

func newLocalSet(t *testing.T) *localSet {
	t.Helper()
	ls := &localSet{t: t, s: New("test"), store: stm.NewStore()}
	for id, v := range ls.s.Seed() {
		if _, err := ls.store.CreateBox(id, v); err != nil {
			t.Fatal(err)
		}
	}
	return ls
}

// atomic runs fn in a committed transaction.
func (ls *localSet) atomic(fn func(tx *stm.Txn) error) {
	ls.t.Helper()
	tx := ls.store.Begin(false)
	if err := fn(tx); err != nil {
		tx.Abort()
		ls.t.Fatal(err)
	}
	ls.seq++
	if err := tx.Commit(stm.TxnID{Replica: 1, Seq: ls.seq}); err != nil {
		ls.t.Fatal(err)
	}
}

func (ls *localSet) insert(key int) bool {
	var added bool
	ls.atomic(func(tx *stm.Txn) error {
		var err error
		added, err = ls.s.Insert(tx, key)
		return err
	})
	return added
}

func (ls *localSet) remove(key int) bool {
	var removed bool
	ls.atomic(func(tx *stm.Txn) error {
		var err error
		removed, err = ls.s.Delete(tx, key)
		return err
	})
	return removed
}

func (ls *localSet) contains(key int) bool {
	tx := ls.store.Begin(true)
	defer tx.Abort()
	ok, err := ls.s.Contains(tx, key)
	if err != nil {
		ls.t.Fatal(err)
	}
	return ok
}

func (ls *localSet) keys() []int {
	tx := ls.store.Begin(true)
	defer tx.Abort()
	out, err := ls.s.InOrder(tx)
	if err != nil {
		ls.t.Fatal(err)
	}
	return out
}

func (ls *localSet) check() {
	ls.t.Helper()
	tx := ls.store.Begin(true)
	defer tx.Abort()
	if err := ls.s.CheckInvariants(tx); err != nil {
		ls.t.Fatal(err)
	}
}

func TestInsertContainsDelete(t *testing.T) {
	ls := newLocalSet(t)

	if ls.contains(5) {
		t.Fatal("empty set contains 5")
	}
	if !ls.insert(5) || !ls.insert(1) || !ls.insert(9) {
		t.Fatal("fresh inserts reported no change")
	}
	if ls.insert(5) {
		t.Fatal("duplicate insert reported change")
	}
	for _, k := range []int{1, 5, 9} {
		if !ls.contains(k) {
			t.Fatalf("missing %d", k)
		}
	}
	if ls.contains(7) {
		t.Fatal("contains(7) on {1,5,9}")
	}
	if !ls.remove(5) {
		t.Fatal("delete 5 reported no change")
	}
	if ls.remove(5) {
		t.Fatal("double delete reported change")
	}
	if got := ls.keys(); len(got) != 2 || got[0] != 1 || got[1] != 9 {
		t.Fatalf("keys = %v, want [1 9]", got)
	}
	ls.check()
}

func TestInOrderSorted(t *testing.T) {
	ls := newLocalSet(t)
	rng := rand.New(rand.NewSource(3))
	want := map[int]bool{}
	for i := 0; i < 200; i++ {
		k := rng.Intn(500)
		ls.insert(k)
		want[k] = true
	}
	got := ls.keys()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("InOrder not sorted: %v", got)
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	ls.check()
}

func TestMinMax(t *testing.T) {
	ls := newLocalSet(t)

	tx := ls.store.Begin(true)
	if _, ok, err := ls.s.Min(tx); err != nil || ok {
		t.Fatalf("Min on empty = ok=%t err=%v", ok, err)
	}
	tx.Abort()

	for _, k := range []int{42, -7, 100, 3} {
		ls.insert(k)
	}
	tx = ls.store.Begin(true)
	defer tx.Abort()
	if mn, ok, _ := ls.s.Min(tx); !ok || mn != -7 {
		t.Fatalf("Min = %d (%t), want -7", mn, ok)
	}
	if mx, ok, _ := ls.s.Max(tx); !ok || mx != 100 {
		t.Fatalf("Max = %d (%t), want 100", mx, ok)
	}
}

func TestDeterministicStructure(t *testing.T) {
	// The same key set must produce the identical tree regardless of
	// insertion order (a treap is uniquely determined by keys+priorities).
	build := func(keys []int) stm.StoreSnapshot {
		ls := newLocalSet(t)
		for _, k := range keys {
			ls.insert(k)
		}
		return ls.store.Snapshot()
	}
	a := build([]int{1, 2, 3, 4, 5, 6, 7})
	b := build([]int{7, 3, 5, 1, 6, 2, 4})
	if len(a.Boxes) != len(b.Boxes) {
		t.Fatalf("box counts differ: %d vs %d", len(a.Boxes), len(b.Boxes))
	}
	for i := range a.Boxes {
		if a.Boxes[i].Box != b.Boxes[i].Box || a.Boxes[i].Value != b.Boxes[i].Value {
			t.Fatalf("structure differs at %s: %v vs %v",
				a.Boxes[i].Box, a.Boxes[i].Value, b.Boxes[i].Value)
		}
	}
}

func TestConflictOnOverlappingPaths(t *testing.T) {
	ls := newLocalSet(t)
	for _, k := range []int{10, 20, 30} {
		ls.insert(k)
	}

	// Two concurrent transactions inserting along overlapping paths: the
	// second commit must fail validation.
	t1 := ls.store.Begin(false)
	t2 := ls.store.Begin(false)
	if _, err := ls.s.Insert(t1, 15); err != nil {
		t.Fatal(err)
	}
	if _, err := ls.s.Insert(t2, 16); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(stm.TxnID{Replica: 1, Seq: 100}); err != nil {
		t.Fatalf("t1: %v", err)
	}
	if err := t2.Commit(stm.TxnID{Replica: 1, Seq: 101}); err == nil {
		t.Fatal("overlapping concurrent insert did not conflict")
	}
}

// Property: after any interleaved sequence of inserts and deletes, the set
// agrees with a reference map and every structural invariant holds.
func TestQuickAgainstReferenceModel(t *testing.T) {
	f := func(ops []int16) bool {
		ls := newLocalSet(t)
		ref := map[int]bool{}
		for _, op := range ops {
			key := int(op) / 2
			if op%2 == 0 {
				added := ls.insert(key)
				if added == ref[key] { // added must equal !present
					return false
				}
				ref[key] = true
			} else {
				removed := ls.remove(key)
				if removed != ref[key] {
					return false
				}
				delete(ref, key)
			}
		}
		got := ls.keys()
		if len(got) != len(ref) {
			return false
		}
		for _, k := range got {
			if !ref[k] {
				return false
			}
		}
		tx := ls.store.Begin(true)
		defer tx.Abort()
		return ls.s.CheckInvariants(tx) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoSetsAreIndependent(t *testing.T) {
	store := stm.NewStore()
	a, b := New("a"), New("b")
	for id, v := range a.Seed() {
		if _, err := store.CreateBox(id, v); err != nil {
			t.Fatal(err)
		}
	}
	for id, v := range b.Seed() {
		if _, err := store.CreateBox(id, v); err != nil {
			t.Fatal(err)
		}
	}

	tx := store.Begin(false)
	if _, err := a.Insert(tx, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(stm.TxnID{Replica: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}

	ro := store.Begin(true)
	defer ro.Abort()
	if n, _ := b.Len(ro); n != 0 {
		t.Fatalf("set b has %d elements after insert into a", n)
	}
	if n, _ := a.Len(ro); n != 1 {
		t.Fatalf("set a has %d elements, want 1", n)
	}
}

// TestNodeCodec: a node box value survives the wire codec, and hostile input
// (every truncation, a string length past the input) is an error, never a
// panic.
func TestNodeCodec(t *testing.T) {
	for _, want := range []node{
		{Key: -7, Prio: 1<<64 - 1, Left: "set:s:n:-9", Right: "set:s:n:3"},
		{},
	} {
		b, err := wire.AppendAny(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		if b[0] != tagNode {
			t.Fatalf("tag = 0x%02x, want 0x%02x", b[0], tagNode)
		}
		r := wire.NewReader(b)
		got, err := wire.ReadAny(r)
		if err != nil || got != want || r.Len() != 0 {
			t.Fatalf("roundtrip %#v = %#v, %v (%d bytes left)", want, got, err, r.Len())
		}
		for i := range b {
			if v, err := wire.ReadAny(wire.NewReader(b[:i])); err == nil {
				t.Fatalf("%d of %d bytes decoded as %#v", i, len(b), v)
			}
		}
	}
	b := wire.AppendUint64(wire.AppendVarint([]byte{tagNode}, 1), 2)
	b = wire.AppendUvarint(b, 1000) // Left's length
	if _, err := wire.ReadAny(wire.NewReader(append(b, "set"...))); !errors.Is(err, wire.ErrOversize) {
		t.Fatalf("oversize string err = %v, want ErrOversize", err)
	}
}
