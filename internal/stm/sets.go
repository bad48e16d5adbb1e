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
