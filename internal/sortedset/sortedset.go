// Package sortedset implements a replicated, transactional sorted set — the
// classic STM "intset" workload — as a deterministic treap whose nodes live
// in versioned boxes. It demonstrates (and stress-tests) running a real
// linked data structure over the replicated STM: every operation is a
// transaction touching a logarithmic number of boxes, structural rotations
// update several nodes atomically, and concurrent operations from different
// replicas conflict exactly when their access paths overlap.
//
// The treap's priorities are a hash of the key, not random: a transaction
// body may re-execute after an abort, so the structure it builds must be a
// pure function of the data. A deterministic treap is also identical on
// every replica by construction, easing debugging and testing.
//
// Node identifiers are derived from the key as well, so inserting the same
// key always touches the same boxes regardless of which replica runs it.
package sortedset

import (
	"fmt"
	"hash/fnv"

	"github.com/alcstm/alc/internal/wire"
)

// Txn is the slice of a transaction the set needs; satisfied by both the
// internal *stm.Txn and the public API's transaction handle.
type Txn interface {
	Read(box string) (any, error)
	Write(box string, v any) error
}

// node is the immutable value stored in a node box. Empty Left/Right mean
// nil children.
type node struct {
	Key         int
	Prio        uint64
	Left, Right string
}

// Set is a handle on one replicated sorted set, identified by a name prefix.
// The zero value is unusable; construct with New. Set carries no state of
// its own: all state lives in boxes, so any number of handles (on any
// replica) may operate on the same set concurrently.
type Set struct {
	prefix string
}

// New returns a handle on the set with the given name.
func New(name string) *Set {
	return &Set{prefix: "set:" + name}
}

// Seed returns the boxes that must exist before the set is used: the root
// pointer and the size counter. Seed it on every replica.
func (s *Set) Seed() map[string]any {
	return map[string]any{
		s.rootBox(): "",
		s.sizeBox(): 0,
	}
}

func (s *Set) rootBox() string        { return s.prefix + ":root" }
func (s *Set) sizeBox() string        { return s.prefix + ":size" }
func (s *Set) nodeBox(key int) string { return fmt.Sprintf("%s:n:%d", s.prefix, key) }

// prio derives the deterministic treap priority of a key.
func (s *Set) prio(key int) uint64 {
	h := fnv.New64a()
	_, _ = fmt.Fprintf(h, "%s|%d", s.prefix, key)
	return h.Sum64()
}

// readRoot returns the root node box name ("" = empty set).
func (s *Set) readRoot(tx Txn) (string, error) {
	v, err := tx.Read(s.rootBox())
	if err != nil {
		return "", err
	}
	id, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("sortedset: root box holds %T", v)
	}
	return id, nil
}

// readNode loads a node by box name.
func (s *Set) readNode(tx Txn, id string) (node, error) {
	v, err := tx.Read(id)
	if err != nil {
		return node{}, err
	}
	n, ok := v.(node)
	if !ok {
		return node{}, fmt.Errorf("sortedset: node box %s holds %T", id, v)
	}
	return n, nil
}

// Len returns the set's cardinality.
func (s *Set) Len(tx Txn) (int, error) {
	v, err := tx.Read(s.sizeBox())
	if err != nil {
		return 0, err
	}
	n, ok := v.(int)
	if !ok {
		return 0, fmt.Errorf("sortedset: size box holds %T", v)
	}
	return n, nil
}

// Contains reports whether key is in the set, reading only the search path.
func (s *Set) Contains(tx Txn, key int) (bool, error) {
	id, err := s.readRoot(tx)
	if err != nil {
		return false, err
	}
	for id != "" {
		n, err := s.readNode(tx, id)
		if err != nil {
			return false, err
		}
		switch {
		case key == n.Key:
			return true, nil
		case key < n.Key:
			id = n.Left
		default:
			id = n.Right
		}
	}
	return false, nil
}

// Insert adds key to the set; it reports whether the set changed.
func (s *Set) Insert(tx Txn, key int) (bool, error) {
	root, err := s.readRoot(tx)
	if err != nil {
		return false, err
	}
	newRoot, added, err := s.insert(tx, root, key)
	if err != nil {
		return false, err
	}
	if !added {
		return false, nil
	}
	if newRoot != root {
		if err := tx.Write(s.rootBox(), newRoot); err != nil {
			return false, err
		}
	}
	return true, s.adjustSize(tx, +1)
}

// insert returns the id of the (possibly new) subtree root.
func (s *Set) insert(tx Txn, id string, key int) (string, bool, error) {
	if id == "" {
		nid := s.nodeBox(key)
		if err := tx.Write(nid, node{Key: key, Prio: s.prio(key)}); err != nil {
			return "", false, err
		}
		return nid, true, nil
	}
	n, err := s.readNode(tx, id)
	if err != nil {
		return "", false, err
	}
	switch {
	case key == n.Key:
		return id, false, nil
	case key < n.Key:
		child, added, err := s.insert(tx, n.Left, key)
		if err != nil || !added {
			return id, added, err
		}
		n.Left = child
		// Heap order: rotate right if the child outranks us.
		c, err := s.readNode(tx, child)
		if err != nil {
			return "", false, err
		}
		if c.Prio > n.Prio {
			return s.rotateRight(tx, id, n, child, c)
		}
		return id, true, s.writeNode(tx, id, n)
	default:
		child, added, err := s.insert(tx, n.Right, key)
		if err != nil || !added {
			return id, added, err
		}
		n.Right = child
		c, err := s.readNode(tx, child)
		if err != nil {
			return "", false, err
		}
		if c.Prio > n.Prio {
			return s.rotateLeft(tx, id, n, child, c)
		}
		return id, true, s.writeNode(tx, id, n)
	}
}

// rotateRight lifts the left child c above n. Returns the new subtree root.
func (s *Set) rotateRight(tx Txn, nid string, n node, cid string, c node) (string, bool, error) {
	n.Left = c.Right
	c.Right = nid
	if err := s.writeNode(tx, nid, n); err != nil {
		return "", false, err
	}
	return cid, true, s.writeNode(tx, cid, c)
}

// rotateLeft lifts the right child c above n.
func (s *Set) rotateLeft(tx Txn, nid string, n node, cid string, c node) (string, bool, error) {
	n.Right = c.Left
	c.Left = nid
	if err := s.writeNode(tx, nid, n); err != nil {
		return "", false, err
	}
	return cid, true, s.writeNode(tx, cid, c)
}

func (s *Set) writeNode(tx Txn, id string, n node) error {
	return tx.Write(id, n)
}

// Delete removes key from the set; it reports whether the set changed.
func (s *Set) Delete(tx Txn, key int) (bool, error) {
	root, err := s.readRoot(tx)
	if err != nil {
		return false, err
	}
	newRoot, removed, err := s.delete(tx, root, key)
	if err != nil || !removed {
		return removed, err
	}
	if newRoot != root {
		if err := tx.Write(s.rootBox(), newRoot); err != nil {
			return false, err
		}
	}
	return true, s.adjustSize(tx, -1)
}

func (s *Set) delete(tx Txn, id string, key int) (string, bool, error) {
	if id == "" {
		return "", false, nil
	}
	n, err := s.readNode(tx, id)
	if err != nil {
		return "", false, err
	}
	switch {
	case key < n.Key:
		child, removed, err := s.delete(tx, n.Left, key)
		if err != nil || !removed {
			return id, removed, err
		}
		n.Left = child
		return id, true, s.writeNode(tx, id, n)
	case key > n.Key:
		child, removed, err := s.delete(tx, n.Right, key)
		if err != nil || !removed {
			return id, removed, err
		}
		n.Right = child
		return id, true, s.writeNode(tx, id, n)
	default:
		// Found: merge the children by rotating the node down until it is
		// a leaf, preserving the heap order.
		merged, err := s.merge(tx, n.Left, n.Right)
		if err != nil {
			return "", false, err
		}
		return merged, true, nil
	}
}

// merge joins two treaps where every key in a precedes every key in b.
func (s *Set) merge(tx Txn, a, b string) (string, error) {
	switch {
	case a == "":
		return b, nil
	case b == "":
		return a, nil
	}
	na, err := s.readNode(tx, a)
	if err != nil {
		return "", err
	}
	nb, err := s.readNode(tx, b)
	if err != nil {
		return "", err
	}
	if na.Prio > nb.Prio {
		right, err := s.merge(tx, na.Right, b)
		if err != nil {
			return "", err
		}
		na.Right = right
		return a, s.writeNode(tx, a, na)
	}
	left, err := s.merge(tx, a, nb.Left)
	if err != nil {
		return "", err
	}
	nb.Left = left
	return b, s.writeNode(tx, b, nb)
}

// DeleteRange removes every key in the closed interval [lo, hi] and returns
// how many keys were removed. It is the treap split/excise/merge: two splits
// carve out the [lo, hi] subtree, which is counted and unlinked whole, so the
// transaction's write-set covers only the two split paths — O(log n) boxes
// regardless of how many keys the range holds (their node boxes are simply
// unreferenced, exactly like single-key Delete).
func (s *Set) DeleteRange(tx Txn, lo, hi int) (int, error) {
	if lo > hi {
		return 0, nil
	}
	root, err := s.readRoot(tx)
	if err != nil {
		return 0, err
	}
	left, rest, err := s.split(tx, root, lo) // left: keys < lo
	if err != nil {
		return 0, err
	}
	var mid, right string
	if hi == int(^uint(0)>>1) {
		// hi+1 would overflow; everything >= lo is in range.
		mid, right = rest, ""
	} else {
		mid, right, err = s.split(tx, rest, hi+1) // mid: keys in [lo, hi]
		if err != nil {
			return 0, err
		}
	}
	removed, err := s.countSubtree(tx, mid)
	if err != nil {
		return 0, err
	}
	merged, err := s.merge(tx, left, right)
	if err != nil {
		return 0, err
	}
	if merged != root {
		if err := tx.Write(s.rootBox(), merged); err != nil {
			return 0, err
		}
	}
	if removed == 0 {
		return 0, nil
	}
	return removed, s.adjustSize(tx, -removed)
}

// split partitions the subtree at id into (keys < key, keys >= key),
// preserving the heap order in both halves.
func (s *Set) split(tx Txn, id string, key int) (string, string, error) {
	if id == "" {
		return "", "", nil
	}
	n, err := s.readNode(tx, id)
	if err != nil {
		return "", "", err
	}
	if n.Key < key {
		l, r, err := s.split(tx, n.Right, key)
		if err != nil {
			return "", "", err
		}
		n.Right = l
		return id, r, s.writeNode(tx, id, n)
	}
	l, r, err := s.split(tx, n.Left, key)
	if err != nil {
		return "", "", err
	}
	n.Left = r
	return l, id, s.writeNode(tx, id, n)
}

// countSubtree returns the number of nodes under id.
func (s *Set) countSubtree(tx Txn, id string) (int, error) {
	if id == "" {
		return 0, nil
	}
	n, err := s.readNode(tx, id)
	if err != nil {
		return 0, err
	}
	l, err := s.countSubtree(tx, n.Left)
	if err != nil {
		return 0, err
	}
	r, err := s.countSubtree(tx, n.Right)
	if err != nil {
		return 0, err
	}
	return 1 + l + r, nil
}

func (s *Set) adjustSize(tx Txn, delta int) error {
	v, err := tx.Read(s.sizeBox())
	if err != nil {
		return err
	}
	n, ok := v.(int)
	if !ok {
		return fmt.Errorf("sortedset: size box holds %T", v)
	}
	return tx.Write(s.sizeBox(), n+delta)
}

// InOrder returns the keys in ascending order (reads the whole structure).
func (s *Set) InOrder(tx Txn) ([]int, error) {
	root, err := s.readRoot(tx)
	if err != nil {
		return nil, err
	}
	var out []int
	var walk func(id string) error
	walk = func(id string) error {
		if id == "" {
			return nil
		}
		n, err := s.readNode(tx, id)
		if err != nil {
			return err
		}
		if err := walk(n.Left); err != nil {
			return err
		}
		out = append(out, n.Key)
		return walk(n.Right)
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	return out, nil
}

// Min returns the smallest key (ok=false on an empty set).
func (s *Set) Min(tx Txn) (int, bool, error) {
	id, err := s.readRoot(tx)
	if err != nil {
		return 0, false, err
	}
	if id == "" {
		return 0, false, nil
	}
	for {
		n, err := s.readNode(tx, id)
		if err != nil {
			return 0, false, err
		}
		if n.Left == "" {
			return n.Key, true, nil
		}
		id = n.Left
	}
}

// Max returns the largest key (ok=false on an empty set).
func (s *Set) Max(tx Txn) (int, bool, error) {
	id, err := s.readRoot(tx)
	if err != nil {
		return 0, false, err
	}
	if id == "" {
		return 0, false, nil
	}
	for {
		n, err := s.readNode(tx, id)
		if err != nil {
			return 0, false, err
		}
		if n.Right == "" {
			return n.Key, true, nil
		}
		id = n.Right
	}
}

// CheckInvariants verifies the binary-search-tree order, the heap order on
// priorities, and the size counter. It returns a descriptive error on the
// first violation (used by property tests).
func (s *Set) CheckInvariants(tx Txn) error {
	root, err := s.readRoot(tx)
	if err != nil {
		return err
	}
	count := 0
	var walk func(id string, lo, hi *int, maxPrio uint64) error
	walk = func(id string, lo, hi *int, maxPrio uint64) error {
		if id == "" {
			return nil
		}
		n, err := s.readNode(tx, id)
		if err != nil {
			return err
		}
		if lo != nil && n.Key <= *lo {
			return fmt.Errorf("sortedset: BST violation: %d <= bound %d", n.Key, *lo)
		}
		if hi != nil && n.Key >= *hi {
			return fmt.Errorf("sortedset: BST violation: %d >= bound %d", n.Key, *hi)
		}
		if n.Prio > maxPrio {
			return fmt.Errorf("sortedset: heap violation at key %d", n.Key)
		}
		count++
		if err := walk(n.Left, lo, &n.Key, n.Prio); err != nil {
			return err
		}
		return walk(n.Right, &n.Key, hi, n.Prio)
	}
	if err := walk(root, nil, nil, ^uint64(0)); err != nil {
		return err
	}
	size, err := s.Len(tx)
	if err != nil {
		return err
	}
	if size != count {
		return fmt.Errorf("sortedset: size counter %d != %d nodes", size, count)
	}
	return nil
}

// tagNode is the wire tag of a node box value (the application-value range
// 0x30-0x3F; see internal/wire). Tags are wire format: never renumber.
const tagNode byte = 0x30

// The node codec makes the set's boxes encodable wherever box values are
// serialized: tcpnet frames, WAL records and snapshots, state transfers.
func init() {
	wire.Register(tagNode, node{}, encodeNode, decodeNode)
}

func encodeNode(b []byte, v any) ([]byte, error) {
	n := v.(node)
	b = wire.AppendVarint(b, int64(n.Key))
	b = wire.AppendUint64(b, n.Prio)
	b = wire.AppendString(b, n.Left)
	return wire.AppendString(b, n.Right), nil
}

func decodeNode(r *wire.Reader) (any, error) {
	n := node{Key: int(r.Varint()), Prio: r.Uint64(), Left: r.String(), Right: r.String()}
	return n, r.Err()
}
