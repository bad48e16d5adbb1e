package stm

// ReadEntry records one box read by a transaction together with the identity
// of the transaction that wrote the version observed. Writer identities —
// not timestamps — are what can be compared across replicas, because
// non-conflicting write-sets may be applied in different orders (and hence
// at different local timestamps) at different replicas. A read that found no
// box records the zero writer: the box's initial version.
type ReadEntry struct {
	Box    string
	Writer TxnID
}

// ReadSet is a transaction's read-set, sorted by box ID.
type ReadSet []ReadEntry

// BoxIDs returns just the box identifiers of the read-set.
func (rs ReadSet) BoxIDs() []string {
	ids := make([]string, len(rs))
	for i, e := range rs {
		ids[i] = e.Box
	}
	return ids
}

// WriteEntry is one buffered update: the final value a transaction wrote to
// a box.
type WriteEntry struct {
	Box   string
	Value Value
}

// WriteSet is a transaction's write-set, sorted by box ID. Applying a
// write-set installs one new version per entry, all tagged with the same
// commit timestamp and writer.
type WriteSet []WriteEntry

// BoxIDs returns just the box identifiers of the write-set.
func (ws WriteSet) BoxIDs() []string {
	ids := make([]string, len(ws))
	for i, e := range ws {
		ids[i] = e.Box
	}
	return ids
}

func (e ReadEntry) boxID() string  { return e.Box }
func (e WriteEntry) boxID() string { return e.Box }

// smallSet is the size up to which an entrySet is searched by a scan; a
// larger one builds a map index.
const smallSet = 16

// entrySet is a transaction's read- or write-set in first-access order, at
// most one entry per box.
type entrySet[E interface{ boxID() string }] struct {
	list  []E
	index map[string]int // box ID -> position in list, once len(list) > smallSet
}

// find returns the position of the box's entry, or -1.
func (s *entrySet[E]) find(id string) int {
	if s.index != nil {
		if i, ok := s.index[id]; ok {
			return i
		}
		return -1
	}
	for i := range s.list {
		if s.list[i].boxID() == id {
			return i
		}
	}
	return -1
}

// add appends the entry of a box not in the set yet.
func (s *entrySet[E]) add(e E) {
	s.list = append(s.list, e)
	switch {
	case s.index != nil:
		s.index[e.boxID()] = len(s.list) - 1
	case len(s.list) > smallSet:
		s.index = make(map[string]int, 2*len(s.list))
		for i := range s.list {
			s.index[s.list[i].boxID()] = i
		}
	}
}
