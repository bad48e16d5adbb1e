package stm

import (
	"slices"
	"strings"
)

// BoxState is the latest committed state of one box, as captured by Snapshot.
type BoxState struct {
	Box    string
	Writer TxnID
	Value  Value
}

// StoreSnapshot is a consistent copy of a store's latest committed state,
// used for state transfer when a replica joins or rejoins the group (§4.2,
// view changes).
type StoreSnapshot struct {
	Clock int64
	Boxes []BoxState
}

// Snapshot captures the latest committed value of every box together with
// the commit clock. The capture is atomic with respect to commits: it holds
// the commit lock, so no half-installed commit can appear in the copy.
func (s *Store) Snapshot() StoreSnapshot {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()

	boxes := make([]BoxState, 0, s.NumBoxes())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, b := range sh.boxes {
			v := b.head.Load()
			if v == nil {
				continue
			}
			boxes = append(boxes, BoxState{Box: id, Writer: v.writer, Value: v.value})
		}
		sh.mu.RUnlock()
	}

	slices.SortFunc(boxes, func(a, b BoxState) int { return strings.Compare(a.Box, b.Box) })
	return StoreSnapshot{Clock: s.clock.Load(), Boxes: boxes}
}

// Restore replaces the store's content with the snapshot. It must only be
// called while the replica is not processing transactions (during state
// transfer, before the new view is installed).
//
// Restore truncates version histories: the snapshot carries only the head
// version of each box, so the restored store has no per-box history prefix.
// Restores() lets observers (the history checker) know a store's histories
// are no longer complete.
func (s *Store) Restore(snap StoreSnapshot) {
	s.restores.Add(1)
	s.commitMu.Lock()
	defer s.commitMu.Unlock()

	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.boxes = make(map[string]*VBox)
		sh.mu.Unlock()
	}
	for _, bs := range snap.Boxes {
		b := s.ensureBox(bs.Box)
		b.head.Store(&version{ts: snap.Clock, writer: bs.Writer, value: bs.Value})
	}
	s.clock.Store(snap.Clock)
}

// VersionWriters returns the writer IDs of the box's retained versions,
// oldest first. Together with the fact that every committed write creates a
// version, per-box writer sequences are a serializability witness: 1-copy
// serializability requires all replicas to apply the writes of any single
// box in the same order, so the sequences must match replica-to-replica
// (modulo GC truncation, which only ever removes a prefix).
func (s *Store) VersionWriters(box string) []TxnID {
	b, ok := s.Box(box)
	if !ok {
		return nil
	}
	var rev []TxnID
	for v := b.head.Load(); v != nil; v = v.prev.Load() {
		rev = append(rev, v.writer)
	}
	out := make([]TxnID, len(rev))
	for i, w := range rev {
		out[len(rev)-1-i] = w
	}
	return out
}
