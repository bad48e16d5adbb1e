// Package wire is the hand-rolled binary codec for everything that crosses a
// TCP connection — inter-replica protocol messages (gcs envelopes, write-set
// batches, lease operations, state-transfer frames) and the client
// request/response protocol — and, through the same field helpers, for what
// internal/core writes to disk (WAL records, store snapshots). It is the only
// serialisation format in the tree.
//
// # Format
//
// Every connection starts with an 8-byte handshake naming the codec and its
// version (see AppendHandshake); a peer speaking a different codec or version
// fails loudly at accept time instead of corrupting silently. After the
// handshake the stream is a sequence of length-prefixed frames:
//
//	u32le  body length (bounded by the receiver's MaxFrame)
//	u8     wire version (Version)
//	...    body
//
// An inter-replica body is a transport envelope: the sender ID (zigzag
// varint) followed by one tagged message (AppendAny). A client-port body is a
// tagged client request or response (client.go).
//
// Values are encoded with the primitives below: fixed-width little-endian for
// u32/u64/f64, varints (encoding/binary) for counts and integers, and
// length-prefixed byte strings. Compound protocol messages register an
// AppendFunc/ReadFunc pair per concrete type (Register); encode dispatches on
// the dynamic type, decode on a one-byte tag. Application box values outside
// the built-in primitives register the same way (tags 0x30-0x3F): a type
// with no codec cannot be encoded, on the network or in the WAL.
//
// # Safety
//
// Reader is a bounded cursor over one frame body: every length read is
// validated against the bytes actually remaining BEFORE any allocation, so a
// hostile frame can never make the decoder allocate more than the frame cap,
// and all decode paths return errors instead of panicking (FuzzWireFrame and
// FuzzWireMessage enforce both properties).
package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"unsafe"
)

// Version is the wire format version carried by the handshake and every
// frame. Bump it for any incompatible layout change: mixed-version clusters
// must fail at handshake, not corrupt. Version 2: gcs data frames carry
// piggybacked acknowledgements. Version 3: gcs vector clocks and
// acknowledgements are member-indexed vectors (cumulative held vectors, not
// message-ID lists), and flush reports and installs lose two unused fields.
// Version 4: one group per replica — the shard-group envelopes (tags 0x29,
// 0x2A) and the single write-set message (0x20) are gone, so a peer that
// still runs shard groups is refused at the handshake. Version 5: a state
// transfer's lease table says per request whether its §4.5(c) payload is
// resolved, a full transfer carries the TO lane's applied entries past its
// frontier, and a lease release says whether it is sent again after an
// ejection. Version 6: one state-transfer message — the delta form (tag
// 0x28, retired) is a form of the full one (0x27), told apart by a leading
// discriminator. Version 7: the sequencer's order slots ride any gcs data
// frame (urbData.Orders); its separate order message (tag 0x12) is retired.
const Version = 7

// Errors returned by decode paths.
var (
	// ErrTruncated is returned when a frame body ends before the value it
	// promises.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrOversize is returned when a declared length exceeds the bytes
	// remaining (or the frame cap), before anything is allocated.
	ErrOversize = errors.New("wire: declared length exceeds input")
	// ErrVersion is returned for a frame or handshake with an unsupported
	// version byte.
	ErrVersion = errors.New("wire: unsupported wire version")
	// ErrUnknownTag is returned for a message tag with no registered codec.
	ErrUnknownTag = errors.New("wire: unknown message tag")
)

// ---------------------------------------------------------------------------
// Append-style encode primitives. All return the extended slice; callers
// reuse one buffer per connection so steady-state encoding allocates nothing.

// AppendUvarint appends an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends a zigzag-encoded signed varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendUint32 appends a fixed-width little-endian uint32.
func AppendUint32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendUint64 appends a fixed-width little-endian uint64.
func AppendUint64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendFloat64 appends an IEEE-754 float64 bit pattern.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendBool appends one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// ---------------------------------------------------------------------------
// Reader: a bounded, error-latching decode cursor over one frame body.

// Reader decodes the primitives from a byte slice. The first decode error
// latches: every subsequent read returns the zero value, so sequential field
// decoding can check Err once at the end.
type Reader struct {
	b   []byte
	off int
	err error
	// shared marks b as stable for the lifetime of everything decoded from
	// it: String and Bytes then alias b instead of copying (see
	// NewSharedReader). ints is what is left of the current chunk of the
	// int-boxing arena, chunk that chunk's size (see boxInt).
	shared bool
	ints   []int
	chunk  int
}

// NewReader returns a Reader over b. String and Bytes copy out of b, so the
// caller may reuse b after decoding.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// NewSharedReader returns a Reader whose String and Bytes results alias b
// directly — zero copies, zero per-string allocations. The caller must
// guarantee b is never modified or reused while any decoded value is alive
// (DecodeEnvelope satisfies this by copying the frame body once up front).
func NewSharedReader(b []byte) *Reader { return &Reader{b: b, shared: true} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes not yet consumed.
func (r *Reader) Len() int { return len(r.b) - r.off }

// fail latches the first error.
func (r *Reader) fail(err error) { //nolint:unparam
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

// Uint32 reads a fixed-width little-endian uint32.
func (r *Reader) Uint32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// Uint64 reads a fixed-width little-endian uint64.
func (r *Reader) Uint64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Float64 reads an IEEE-754 float64.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail(ErrTruncated)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bool reads one byte as a bool (any nonzero byte is true).
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// String reads a length-prefixed string. The declared length is validated
// against the remaining bytes before the string is materialized. In shared
// mode the string aliases the input with no copy or allocation.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.Len()) {
		r.fail(ErrOversize)
		return ""
	}
	if n == 0 {
		return ""
	}
	var s string
	if r.shared {
		s = unsafe.String(&r.b[r.off], int(n))
	} else {
		s = string(r.b[r.off : r.off+int(n)])
	}
	r.off += int(n)
	return s
}

// Bytes reads a length-prefixed byte slice. The declared length is validated
// against the remaining bytes before allocation. Outside shared mode the
// bytes are copied out of the frame so the caller may retain them after the
// connection buffer is reused; in shared mode they alias the input.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Len()) {
		r.fail(ErrOversize)
		return nil
	}
	if n == 0 {
		return nil
	}
	if r.shared {
		p := r.b[r.off : r.off+int(n) : r.off+int(n)]
		r.off += int(n)
		return p
	}
	p := make([]byte, n)
	copy(p, r.b[r.off:])
	r.off += int(n)
	return p
}

// boxInt converts an int to any. Small non-negative values ride the
// runtime's static boxes; everything else is boxed out of a chunked arena so
// a frame full of integers (a write-set batch of account balances) costs one
// allocation per 64 values instead of one per value. A boxed value keeps its
// whole chunk alive, and a Reader lives for one frame, so chunks grow
// geometrically — 1, 2, 4 … 64 slots: the commit frame that carries a single
// int, and is then retained by the store and the delta window, pins 8 bytes,
// not 512.
func (r *Reader) boxInt(v int) any {
	if v >= 0 && v < 256 {
		return v // runtime staticuint64s: no allocation
	}
	if len(r.ints) == 0 {
		r.chunk = min(max(2*r.chunk, 1), 64)
		r.ints = make([]int, r.chunk)
	}
	r.ints[0] = v
	p := &r.ints[0]
	r.ints = r.ints[1:]
	return boxedInt(p)
}

// intType is the runtime type pointer of a plain int, captured from a
// statically boxed value (no allocation).
var intType = func() unsafe.Pointer {
	var a any = 0
	return (*[2]unsafe.Pointer)(unsafe.Pointer(&a))[0]
}()

// boxedInt builds the interface value {int, p} directly, the one operation
// the language only offers fused with an allocating copy. p is a live heap
// pointer (an arena slot), so the GC sees a well-formed eface.
func boxedInt(p *int) (a any) {
	*(*[2]unsafe.Pointer)(unsafe.Pointer(&a)) = [2]unsafe.Pointer{intType, unsafe.Pointer(p)}
	return a
}

// Count reads an element count for a slice or map about to be decoded. Every
// element encodes to at least one byte, so a count exceeding the remaining
// bytes is hostile: it is rejected before the caller's make().
func (r *Reader) Count() int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Len()) {
		r.fail(ErrOversize)
		return 0
	}
	return int(n)
}
