package lease

import "slices"

// ConflictClass identifies one lease conflict class. Leases are associated
// with data items indirectly through conflict classes (§4.2), which lets the
// granularity of the lease abstraction be controlled: coarse granularity is
// prone to false sharing (disjoint data-sets mapping to common classes and
// causing unnecessary lease migration), fine granularity costs larger lease
// request messages and bigger queue state.
type ConflictClass uint64

// Mapper implements the paper's getConflictClasses primitive: a hashing
// scheme from data item identifiers to conflict classes.
type Mapper struct {
	// NumClasses is the number of conflict classes. Zero selects the
	// paper's evaluation setting — conflict class granularity coinciding
	// with a single data item — implemented as the full 64-bit hash of the
	// item identifier (collisions merely merge two items into one class,
	// which is always safe).
	NumClasses int
}

// Classes maps a set of data item IDs to their sorted, deduplicated set of
// conflict classes. The result is never nil, even for no items: nil asks
// Establish for a wildcard.
func (m Mapper) Classes(ids []string) []ConflictClass {
	out := make([]ConflictClass, len(ids))
	for i, id := range ids {
		out[i] = m.Class(id)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Class maps one data item ID to its conflict class: FNV-1a (64-bit) over
// the ID, the hash/fnv function inlined.
func (m Mapper) Class(id string) ConflictClass {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	v := uint64(offset64)
	for i := 0; i < len(id); i++ {
		v ^= uint64(id[i])
		v *= prime64
	}
	if m.NumClasses > 0 {
		return ConflictClass(v % uint64(m.NumClasses))
	}
	return ConflictClass(v)
}

// subset reports whether every class in sub appears in super (both sorted).
func subset(sub, super []ConflictClass) bool {
	i := 0
	for _, c := range sub {
		for i < len(super) && super[i] < c {
			i++
		}
		if i >= len(super) || super[i] != c {
			return false
		}
	}
	return true
}

// intersects reports whether the two sorted class sets share any class.
func intersects(a, b []ConflictClass) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}
