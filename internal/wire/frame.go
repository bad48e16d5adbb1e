package wire

import (
	"errors"
	"fmt"
	"io"
)

// Codec identity bytes carried in the connection handshake. A connection's
// two ends must agree on one; tcpnet refuses mixed gob/wire links at accept
// time and the client port refuses replica-protocol dialers.
const (
	// CodecWire is the binary inter-replica protocol (this package).
	CodecWire byte = 'B'
	// CodecGob identifies the retired gob inter-replica framing. No endpoint
	// speaks it anymore; the byte survives so a legacy node dialing in is
	// named in the rejection instead of reading as garbage.
	CodecGob byte = 'G'
	// CodecClient is the client request/response protocol (client.go).
	CodecClient byte = 'C'
)

// DefaultMaxFrame caps inbound frame bodies when the receiver does not
// configure its own bound. State-transfer snapshots are the largest frames; a
// frame above the cap is rejected before any allocation.
const DefaultMaxFrame = 64 << 20

// handshakeLen is the fixed handshake size: "ALC", version, codec, 3 zero
// bytes reserved for future capability bits.
const handshakeLen = 8

var handshakeMagic = [3]byte{'A', 'L', 'C'}

// ErrHandshake wraps every handshake rejection so callers can detect a
// codec/version mismatch distinctly from ordinary connection noise.
var ErrHandshake = errors.New("wire: handshake mismatch")

// AppendHandshake appends the 8-byte connection preamble for the codec.
func AppendHandshake(b []byte, codec byte) []byte {
	return append(b, handshakeMagic[0], handshakeMagic[1], handshakeMagic[2], Version, codec, 0, 0, 0)
}

// WriteHandshake writes the connection preamble to w.
func WriteHandshake(w io.Writer, codec byte) error {
	_, err := w.Write(AppendHandshake(nil, codec))
	return err
}

// ReadHandshake consumes and validates the peer's preamble, requiring the
// given codec. A mismatch (wrong magic, version or codec) is returned as an
// ErrHandshake-wrapped error describing exactly what arrived — the loud
// failure mode that replaces silent stream corruption.
func ReadHandshake(r io.Reader, want byte) error {
	var hs [handshakeLen]byte
	if _, err := io.ReadFull(r, hs[:]); err != nil {
		return fmt.Errorf("%w: short preamble: %v", ErrHandshake, err)
	}
	if hs[0] != handshakeMagic[0] || hs[1] != handshakeMagic[1] || hs[2] != handshakeMagic[2] {
		return fmt.Errorf("%w: bad magic %q (not an alc %s connection?)", ErrHandshake, hs[:3], codecName(want))
	}
	if hs[3] != Version {
		return fmt.Errorf("%w: peer speaks wire version %d, this node speaks %d", ErrHandshake, hs[3], Version)
	}
	if hs[4] != want {
		return fmt.Errorf("%w: peer speaks codec %s, this endpoint speaks %s", ErrHandshake, codecName(hs[4]), codecName(want))
	}
	return nil
}

func codecName(c byte) string {
	switch c {
	case CodecWire:
		return "wire"
	case CodecGob:
		return "gob"
	case CodecClient:
		return "client"
	}
	return fmt.Sprintf("unknown(0x%02x)", c)
}

// ---------------------------------------------------------------------------
// Length-prefixed frames. The 4-byte little-endian length counts the body
// only; the body's first byte is the wire version.

// frameHeaderLen is the length prefix size.
const frameHeaderLen = 4

// BeginFrame appends the frame header placeholder and version byte; the
// caller then appends the body and seals it with FinishFrame. start is the
// offset BeginFrame was called at (0 for a fresh buffer).
func BeginFrame(b []byte) []byte {
	return append(b, 0, 0, 0, 0, Version)
}

// FinishFrame patches the length prefix of the frame that starts at offset
// start (as returned by len(b) before the matching BeginFrame call).
func FinishFrame(b []byte, start int) []byte {
	body := len(b) - start - frameHeaderLen
	b[start] = byte(body)
	b[start+1] = byte(body >> 8)
	b[start+2] = byte(body >> 16)
	b[start+3] = byte(body >> 24)
	return b
}

// ReadFrame reads one frame body (version byte stripped) from r into buf,
// growing it as needed, and returns the body slice (valid until the next
// call). A declared length of zero, above max, or a wrong version byte is an
// error before any body allocation. io.EOF is returned untouched at a clean
// frame boundary so callers can distinguish shutdown from truncation; any
// other read error is wrapped with ErrTruncated and stays visible to
// errors.Is (a closed connection matches net.ErrClosed). A body that ends
// after a complete header is torn: its io.EOF becomes io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte, max int) ([]byte, []byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	// The header is read into buf itself: a local array would escape
	// through the io.Reader interface and cost one allocation per frame.
	if cap(buf) < frameHeaderLen {
		buf = make([]byte, frameHeaderLen)
	}
	hdr := buf[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, buf, io.EOF
		}
		return nil, buf, fmt.Errorf("%w: frame header: %w", ErrTruncated, err)
	}
	n := int(uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24)
	if n < 1 {
		return nil, buf, fmt.Errorf("%w: empty frame", ErrTruncated)
	}
	if n > max {
		return nil, buf, fmt.Errorf("%w: frame of %d bytes exceeds cap %d", ErrOversize, n, max)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, buf, fmt.Errorf("%w: frame body: %w", ErrTruncated, err)
	}
	if buf[0] != Version {
		return nil, buf, fmt.Errorf("%w: frame version %d", ErrVersion, buf[0])
	}
	return buf[1:], buf, nil
}

// ---------------------------------------------------------------------------
// Inter-replica envelope: the frame body tcpnet exchanges.

// AppendEnvelope appends a sealed envelope frame (header, version, sender,
// tagged payload) onto b.
func AppendEnvelope(b []byte, from int32, payload any) ([]byte, error) {
	start := len(b)
	b = BeginFrame(b)
	b = AppendVarint(b, int64(from))
	b, err := AppendAny(b, payload)
	if err != nil {
		return b[:start], err
	}
	return FinishFrame(b, start), nil
}

// DecodeEnvelope decodes a frame body produced by AppendEnvelope (version
// byte already stripped by ReadFrame). The body is copied once into a stable
// block that the decoded message's strings and byte slices alias — callers
// (tcpnet's read loop) may reuse body immediately, and the whole message
// costs one backing allocation instead of one per string field.
func DecodeEnvelope(body []byte) (from int32, payload any, err error) {
	stable := make([]byte, len(body))
	copy(stable, body)
	r := NewSharedReader(stable)
	from = int32(r.Varint())
	payload, err = ReadAny(r)
	if err != nil {
		return 0, nil, err
	}
	if r.Len() != 0 {
		return 0, nil, fmt.Errorf("wire: %d trailing bytes after envelope", r.Len())
	}
	return from, payload, nil
}
