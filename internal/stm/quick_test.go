package stm

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: for any interleaved sequence of single-box read-modify-write
// transactions executed with a retry loop, the STM produces the same final
// state as applying the same successful operations to a plain map, and the
// commit clock equals the number of successful update commits.
func TestQuickLinearizedCounterOps(t *testing.T) {
	f := func(ops []uint8) bool {
		s := NewStore()
		model := make(map[string]int)
		const boxes = 4
		for i := 0; i < boxes; i++ {
			id := fmt.Sprintf("b%d", i)
			if _, err := s.CreateBox(id, 0); err != nil {
				return false
			}
			model[id] = 0
		}

		commits := int64(0)
		for i, op := range ops {
			id := fmt.Sprintf("b%d", int(op)%boxes)
			delta := int(op)/boxes%7 - 3
			tx := s.Begin(false)
			v, err := tx.Read(id)
			if err != nil {
				return false
			}
			if err := tx.Write(id, v.(int)+delta); err != nil {
				return false
			}
			if err := tx.Commit(TxnID{Replica: 1, Seq: uint64(i + 1)}); err != nil {
				// Sequential execution must never conflict.
				return false
			}
			commits++
			model[id] += delta
		}

		if s.CommitTimestamp() != commits {
			return false
		}
		tx := s.Begin(true)
		defer tx.Abort()
		for id, want := range model {
			got, err := tx.Read(id)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshots are immutable — a transaction's reads are unaffected
// by any number of later commits, for random workloads.
func TestQuickSnapshotImmutability(t *testing.T) {
	f := func(writes []uint8, seed int64) bool {
		s := NewStore()
		const boxes = 3
		for i := 0; i < boxes; i++ {
			if _, err := s.CreateBox(fmt.Sprintf("b%d", i), i*100); err != nil {
				return false
			}
		}
		rng := rand.New(rand.NewSource(seed))

		// Pin a snapshot and record its view.
		pinned := s.Begin(false)
		defer pinned.Abort()
		view := make(map[string]any, boxes)
		for i := 0; i < boxes; i++ {
			id := fmt.Sprintf("b%d", i)
			v, err := pinned.Read(id)
			if err != nil {
				return false
			}
			view[id] = v
		}

		for i, w := range writes {
			id := fmt.Sprintf("b%d", int(w)%boxes)
			s.ApplyWriteSet(
				TxnID{Replica: 2, Seq: uint64(i + 1)},
				WriteSet{{Box: id, Value: rng.Int()}},
			)
		}

		for id, want := range view {
			got, err := pinned.Read(id)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Snapshot/Restore is lossless — restoring a snapshot reproduces
// the exact latest state and clock for random write-set histories.
func TestQuickSnapshotRestoreLossless(t *testing.T) {
	f := func(history [][3]uint8) bool {
		src := NewStore()
		for i, h := range history {
			ws := WriteSet{
				{Box: fmt.Sprintf("b%d", int(h[0])%8), Value: int(h[1])},
				{Box: fmt.Sprintf("c%d", int(h[2])%8), Value: int(h[0]) + int(h[2])},
			}
			src.ApplyWriteSet(TxnID{Replica: 3, Seq: uint64(i + 1)}, ws)
		}

		snap := src.Snapshot()
		dst := NewStore()
		dst.Restore(snap)

		if dst.CommitTimestamp() != src.CommitTimestamp() {
			return false
		}
		back := dst.Snapshot()
		if len(back.Boxes) != len(snap.Boxes) || back.Clock != snap.Clock {
			return false
		}
		for i := range snap.Boxes {
			a, b := snap.Boxes[i], back.Boxes[i]
			if a.Box != b.Box || a.Value != b.Value || a.Writer != b.Writer {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: validation fails exactly when a read box was overwritten after
// the snapshot.
func TestQuickValidationPrecision(t *testing.T) {
	f := func(readBox, writeBox uint8) bool {
		s := NewStore()
		const boxes = 5
		for i := 0; i < boxes; i++ {
			if _, err := s.CreateBox(fmt.Sprintf("b%d", i), 0); err != nil {
				return false
			}
		}
		rID := fmt.Sprintf("b%d", int(readBox)%boxes)
		wID := fmt.Sprintf("b%d", int(writeBox)%boxes)

		tx := s.Begin(false)
		defer tx.Abort()
		if _, err := tx.Read(rID); err != nil {
			return false
		}
		s.ApplyWriteSet(TxnID{Replica: 2, Seq: 1}, WriteSet{{Box: wID, Value: 1}})

		wantValid := rID != wID
		return (s.Stale(tx.ReadSet()) == nil) == wantValid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
