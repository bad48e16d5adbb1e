package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestPrimitiveRoundtrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendVarint(b, -1)
	b = AppendVarint(b, math.MinInt64)
	b = AppendUint32(b, 0xdeadbeef)
	b = AppendUint64(b, 1<<63)
	b = AppendFloat64(b, -math.Pi)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendString(b, "héllo")
	b = AppendString(b, "")
	b = AppendBytes(b, []byte{0, 1, 2})
	b = AppendBytes(b, nil)

	r := NewReader(b)
	if got := r.Uvarint(); got != 0 {
		t.Errorf("uvarint = %d", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Errorf("uvarint max = %d", got)
	}
	if got := r.Varint(); got != -1 {
		t.Errorf("varint = %d", got)
	}
	if got := r.Varint(); got != math.MinInt64 {
		t.Errorf("varint min = %d", got)
	}
	if got := r.Uint32(); got != 0xdeadbeef {
		t.Errorf("uint32 = %x", got)
	}
	if got := r.Uint64(); got != 1<<63 {
		t.Errorf("uint64 = %x", got)
	}
	if got := r.Float64(); got != -math.Pi {
		t.Errorf("float64 = %v", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("bools corrupted")
	}
	if got := r.String(); got != "héllo" {
		t.Errorf("string = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty string = %q", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{0, 1, 2}) {
		t.Errorf("bytes = %v", got)
	}
	if got := r.Bytes(); got != nil {
		t.Errorf("nil bytes = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left over", r.Len())
	}
}

func TestReaderHostileLengths(t *testing.T) {
	// A declared string length far beyond the input must error before any
	// allocation.
	b := AppendUvarint(nil, 1<<40)
	r := NewReader(append(b, 'x'))
	if got := r.String(); got != "" || !errors.Is(r.Err(), ErrOversize) {
		t.Fatalf("String on hostile length = %q, err %v", got, r.Err())
	}
	// Same for byte slices and element counts.
	r = NewReader(AppendUvarint(nil, math.MaxUint64))
	if got := r.Bytes(); got != nil || !errors.Is(r.Err(), ErrOversize) {
		t.Fatalf("Bytes on hostile length = %v, err %v", got, r.Err())
	}
	r = NewReader(AppendUvarint(nil, 1<<30))
	if got := r.Count(); got != 0 || !errors.Is(r.Err(), ErrOversize) {
		t.Fatalf("Count on hostile count = %d, err %v", got, r.Err())
	}
}

func TestReaderErrorLatch(t *testing.T) {
	r := NewReader(nil)
	_ = r.Uint64() // fails: empty input
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Err = %v, want ErrTruncated", r.Err())
	}
	// Every later read returns zero values without panicking.
	if r.Uvarint() != 0 || r.String() != "" || r.Bytes() != nil || r.Byte() != 0 {
		t.Fatal("reads after latched error returned nonzero values")
	}
}

func TestHandshake(t *testing.T) {
	hs := AppendHandshake(nil, CodecWire)
	if len(hs) != handshakeLen {
		t.Fatalf("handshake is %d bytes, want %d", len(hs), handshakeLen)
	}
	if err := ReadHandshake(bytes.NewReader(hs), CodecWire); err != nil {
		t.Fatalf("matching handshake rejected: %v", err)
	}

	cases := []struct {
		name string
		hs   []byte
		want byte
	}{
		{"codec mismatch", AppendHandshake(nil, CodecGob), CodecWire},
		{"client on replica port", AppendHandshake(nil, CodecClient), CodecWire},
		{"bad magic", []byte("HTTP/1.1"), CodecWire},
		{"future version", []byte{'A', 'L', 'C', Version + 1, CodecWire, 0, 0, 0}, CodecWire},
		{"short preamble", []byte{'A', 'L'}, CodecWire},
	}
	for _, tc := range cases {
		err := ReadHandshake(bytes.NewReader(tc.hs), tc.want)
		if !errors.Is(err, ErrHandshake) {
			t.Errorf("%s: err = %v, want ErrHandshake", tc.name, err)
		}
	}
}

func TestFrameRoundtrip(t *testing.T) {
	start := 0
	b := BeginFrame(nil)
	b = AppendString(b, "frame body")
	b = FinishFrame(b, start)

	body, _, err := ReadFrame(bytes.NewReader(b), nil, 0)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	r := NewReader(body)
	if got := r.String(); got != "frame body" {
		t.Fatalf("body = %q", got)
	}

	// Two frames back to back through one reused buffer.
	b2 := BeginFrame(b)
	b2 = AppendString(b2, "second")
	b2 = FinishFrame(b2, len(b))
	br := bytes.NewReader(b2)
	var buf []byte
	body, buf, err = ReadFrame(br, buf, 0)
	if err != nil || NewReader(body).String() != "frame body" {
		t.Fatalf("first frame: %v", err)
	}
	body, _, err = ReadFrame(br, buf, 0)
	if err != nil || NewReader(body).String() != "second" {
		t.Fatalf("second frame: %v", err)
	}
}

func TestFrameLimits(t *testing.T) {
	// Oversize declared length: rejected before the body is read.
	hdr := []byte{0xff, 0xff, 0xff, 0x7f, Version}
	if _, _, err := ReadFrame(bytes.NewReader(hdr), nil, 1<<20); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversize frame err = %v", err)
	}
	// Empty frame: invalid (no version byte).
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), nil, 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty frame err = %v", err)
	}
	// Clean EOF at a frame boundary passes through untouched.
	if _, _, err := ReadFrame(bytes.NewReader(nil), nil, 0); err != io.EOF {
		t.Fatalf("EOF = %v", err)
	}
	// Truncation inside the header or body is ErrTruncated, not EOF.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{5, 0}), nil, 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header err = %v", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader([]byte{5, 0, 0, 0, Version, 'x'}), nil, 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short body err = %v", err)
	}
	// Wrong frame version.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{1, 0, 0, 0, Version + 9}), nil, 0); !errors.Is(err, ErrVersion) {
		t.Fatalf("version err = %v", err)
	}
}

func TestAnyRoundtrip(t *testing.T) {
	values := []any{
		nil, true, false,
		int(-42), int64(1 << 40), uint64(math.MaxUint64), float64(2.5),
		"a string", []byte{9, 8, 7},
	}
	for _, want := range values {
		b, err := AppendAny(nil, want)
		if err != nil {
			t.Fatalf("AppendAny(%#v): %v", want, err)
		}
		r := NewReader(b)
		got, err := ReadAny(r)
		if err != nil {
			t.Fatalf("ReadAny(%#v): %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("roundtrip %#v -> %#v", want, got)
		}
		if r.Len() != 0 {
			t.Errorf("%#v left %d trailing bytes", want, r.Len())
		}
	}
}

// wireTestMsg is a registered test message (tag 0x70, inside the test range).
type wireTestMsg struct {
	A uint64
	B string
}

// gobOnlyValue exercises the gob-blob fallback: gob-registered (like
// application box values under core.RegisterValue) but no wire registration.
type gobOnlyValue struct {
	X int
	Y []string
}

func init() {
	gob.Register(&gobOnlyValue{})
	Register(0x70, &wireTestMsg{},
		func(b []byte, v any) ([]byte, error) {
			m := v.(*wireTestMsg)
			return AppendString(AppendUvarint(b, m.A), m.B), nil
		},
		func(r *Reader) (any, error) {
			return &wireTestMsg{A: r.Uvarint(), B: r.String()}, r.Err()
		})
}

func TestRegisteredTypeRoundtrip(t *testing.T) {
	want := &wireTestMsg{A: 77, B: "registered"}
	b, err := AppendAny(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x70 {
		t.Fatalf("tag = 0x%02x, want 0x70", b[0])
	}
	got, err := ReadAny(NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip = %#v, want %#v", got, want)
	}
}

func TestGobFallbackRoundtrip(t *testing.T) {
	want := &gobOnlyValue{X: 3, Y: []string{"gob", "blob"}}
	b, err := AppendAny(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != tagGob {
		t.Fatalf("tag = 0x%02x, want gob fallback 0x%02x", b[0], tagGob)
	}
	got, err := ReadAny(NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip = %#v, want %#v", got, want)
	}
}

func TestUnknownTagErrors(t *testing.T) {
	_, err := ReadAny(NewReader([]byte{0xEE}))
	if !errors.Is(err, ErrUnknownTag) {
		t.Fatalf("err = %v, want ErrUnknownTag", err)
	}
}

func TestEnvelopeRoundtrip(t *testing.T) {
	frame, err := AppendEnvelope(nil, -3, &wireTestMsg{A: 1, B: "env"})
	if err != nil {
		t.Fatal(err)
	}
	body, _, err := ReadFrame(bytes.NewReader(frame), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	from, payload, err := DecodeEnvelope(body)
	if err != nil {
		t.Fatal(err)
	}
	if from != -3 {
		t.Fatalf("from = %d", from)
	}
	if !reflect.DeepEqual(payload, &wireTestMsg{A: 1, B: "env"}) {
		t.Fatalf("payload = %#v", payload)
	}

	// Trailing bytes after the payload are a framing violation.
	if _, _, err := DecodeEnvelope(append(body, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestClientFrameRoundtrip(t *testing.T) {
	reqs := []Request{
		{Seq: 1, Op: OpPing},
		{Seq: 2, Op: OpGet, Key: "k"},
		{Seq: 3, Op: OpSet, Key: "key/with/slash", Arg: -5},
		{Seq: math.MaxUint64, Op: OpInc, Key: strings.Repeat("x", 100), Arg: math.MaxInt64},
	}
	for _, want := range reqs {
		frame := AppendRequest(nil, want)
		body, _, err := ReadFrame(bytes.NewReader(frame), nil, MaxClientFrame)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		got, err := DecodeClientFrame(body)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got != want {
			t.Errorf("request roundtrip = %#v, want %#v", got, want)
		}
	}

	resps := []Response{
		{Seq: 1, Status: StatusOK, Value: 42},
		{Seq: 2, Status: StatusNotFound},
		{Seq: 3, Status: StatusErr, Err: "kaput"},
		{Seq: 4, Status: StatusOverloaded, Err: "server overloaded, retry"},
	}
	for _, want := range resps {
		frame := AppendResponse(nil, want)
		body, _, err := ReadFrame(bytes.NewReader(frame), nil, MaxClientFrame)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		got, err := DecodeClientFrame(body)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got != want {
			t.Errorf("response roundtrip = %#v, want %#v", got, want)
		}
	}
}

func TestClientFrameRejectsBadOps(t *testing.T) {
	frame := AppendRequest(nil, Request{Seq: 1, Op: Op(200), Key: "k"})
	body, _, err := ReadFrame(bytes.NewReader(frame), nil, MaxClientFrame)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeClientFrame(body); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// TestIntArenaGrowsGeometrically bounds what the int-boxing arena costs at both
// ends: a frame with one int must not pin a 64-slot chunk (a commit frame
// carries one, and the store and the retained delta window keep it alive),
// and a frame full of ints must still cost about one allocation per 64.
// Arena cost = decoding n boxed ints minus decoding n ints small enough for
// the runtime's static boxes.
func TestIntArenaGrowsGeometrically(t *testing.T) {
	frame := func(n, v int) []byte {
		var b []byte
		for i := 0; i < n; i++ {
			var err error
			if b, err = AppendAny(b, v+i); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	cost := func(n, v int) (allocs, bytes float64) {
		const runs = 200
		b := frame(n, v)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			r := NewReader(b)
			for j := 0; j < n; j++ {
				if got, err := ReadAny(r); err != nil || got != v+j {
					t.Fatalf("value %d decoded as %v, %v", v+j, got, err)
				}
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	arena := func(n int) (chunks, bytes float64) {
		a0, b0 := cost(n, 0) // static boxes: no arena (n <= 256)
		a1, b1 := cost(n, 1<<20)
		return a1 - a0, b1 - b0
	}
	if chunks, bytes := arena(1); chunks > 1.05 || bytes > 16 {
		t.Errorf("a one-int frame costs %.2f arena chunks, %.0f bytes; want 1 chunk of at most 16 bytes", chunks, bytes)
	}
	big := frame(1024, 1<<20)
	chunks := testing.AllocsPerRun(100, func() {
		r := NewReader(big)
		for j := 0; j < 1024; j++ {
			if _, err := ReadAny(r); err != nil {
				t.Fatal(err)
			}
		}
	}) - 1 // the Reader itself
	t.Logf("1024-int frame: %.0f arena chunks", chunks)
	if chunks > 24 {
		t.Errorf("a 1024-int frame costs %.0f arena chunks, want at most 24", chunks)
	}
}
