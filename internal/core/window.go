package core

import (
	"slices"

	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/wire"
)

// windowSegment is the size of the byte segments the delta window packs its
// encodings into. An entry larger than a segment gets one of its own size.
const windowSegment = 16 << 10

// deltaWindow is the delta-transfer window of appliedState: the last Retain
// applied entries, each kept in its wire encoding (appendWSEntry, copied out
// of the WAL record durable.append encodes it into), so the heap holds bytes
// rather than write-sets whose box names and values alias the frames they
// arrived in. The encodings are packed, in apply order, into segments; a ring
// of references, oldest at refs[head], indexes them. A segment is recycled
// once the oldest entry has moved past it. Apart from the short segment list
// nothing here holds a pointer, so the collector does not walk the window.
//
// Readers decode: the eviction watermarks and seen read an entry's header
// only, and only delta decodes whole entries, for the suffix it serves.
type deltaWindow struct {
	refs []windowRef
	head int
	// segs are the segments still referenced, oldest first; segs[i] is
	// segment number base+i, and the last one takes the next encoding.
	segs [][]byte
	base uint64
	// spare is one emptied segment kept for reuse, so a full window takes
	// and gives back segments without allocating.
	spare []byte
}

// windowRef locates one encoding: segment number, offset and length.
type windowRef struct {
	seg    uint64
	off, n uint32
}

func (w *deltaWindow) len() int { return len(w.refs) }

// push adds an encoding (copied out of enc) as the newest entry. A window
// already holding limit entries first gives up its oldest: the caller reads
// that one's header before the push.
func (w *deltaWindow) push(enc []byte, limit int) {
	full := len(w.refs) == limit
	if full {
		// The oldest entry goes; segments before the next oldest are free.
		keep := ^uint64(0)
		if limit > 1 {
			keep = w.refs[(w.head+1)%limit].seg
		}
		for len(w.segs) > 1 && w.base < keep {
			w.recycle(w.segs[0])
			w.segs = slices.Delete(w.segs, 0, 1)
			w.base++
		}
	}
	last := len(w.segs) - 1
	if last < 0 || cap(w.segs[last])-len(w.segs[last]) < len(enc) {
		w.segs = append(w.segs, w.segment(len(enc)))
		last++
	}
	ref := windowRef{seg: w.base + uint64(last), off: uint32(len(w.segs[last])), n: uint32(len(enc))}
	w.segs[last] = append(w.segs[last], enc...)
	if !full {
		w.refs = append(w.refs, ref)
		return
	}
	w.refs[w.head] = ref
	w.head = (w.head + 1) % limit
}

// segment returns an empty segment with room for n bytes.
func (w *deltaWindow) segment(n int) []byte {
	if n > windowSegment {
		return make([]byte, 0, n)
	}
	if s := w.spare; s != nil {
		w.spare = nil
		return s
	}
	return make([]byte, 0, windowSegment)
}

// recycle keeps an emptied segment of the standard size as the spare.
func (w *deltaWindow) recycle(s []byte) {
	if cap(s) == windowSegment && w.spare == nil {
		w.spare = s[:0]
	}
}

// bytes is the window's footprint: the capacity of every segment it holds.
func (w *deltaWindow) bytes() int64 {
	n := int64(cap(w.spare))
	for _, s := range w.segs {
		n += int64(cap(s))
	}
	return n
}

// enc returns the i-th oldest encoding, 0 <= i < len().
func (w *deltaWindow) enc(i int) []byte {
	ref := w.refs[(w.head+i)%len(w.refs)]
	return w.segs[ref.seg-w.base][ref.off : ref.off+ref.n]
}

// header decodes the i-th oldest entry's TxnID and Ord.
func (w *deltaWindow) header(i int) (stm.TxnID, int64) {
	id, _, ord := readWSEntryHeader(wire.NewReader(w.enc(i)))
	return id, ord
}

// entry decodes the i-th oldest entry. The decode copies: nothing it returns
// aliases a segment.
func (w *deltaWindow) entry(i int) (applyWSEntry, error) {
	return readWSEntry(wire.NewReader(w.enc(i)))
}
