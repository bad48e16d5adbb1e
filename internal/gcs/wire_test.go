package gcs

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/alcstm/alc/internal/transport"
	"github.com/alcstm/alc/internal/wire"
)

// TestBinaryRoundtrip pushes every GCS wire type through the binary codec and
// requires decode(encode(m)) to be deeply equal — including nil-ness of maps
// and slices, which the protocol assigns meaning to (a nil joinReq.Frontier
// demands a full state transfer). Empty slices are encoded as nil by
// convention, so fixtures use nil, never []T{}.
func TestBinaryRoundtrip(t *testing.T) {
	RegisterWire()

	vc := []uint64{3, 0, 9}
	msgs := []any{
		&urbData{View: 4, ID: msgID{Sender: 1, Seq: 17}, Kind: 2, VC: vc,
			Body: "payload", Committed: true},
		&urbData{View: 4, ID: msgID{Sender: 2, Seq: 3}, Kind: 1, VC: vc, Body: "piggyback",
			Acks: []uint64{9, 17, 1 << 40}},
		&urbData{View: 4, ID: msgID{Sender: 2, Seq: 3}, Kind: 1, Body: "acks only", Acks: []uint64{1}},
		&urbData{View: 0, ID: msgID{}, Kind: 0, VC: nil, Body: nil},
		&urbAck{View: 7, From: 2, Held: []uint64{1, 0, 44, 1 << 63}},
		&urbAck{View: 1, From: 0},
		&orderBatch{Entries: []orderEntry{{ID: msgID{Sender: 1, Seq: 2}, GSeq: 10}}},
		&orderBatch{},
		&heartbeat{View: 12, From: 3},
		&joinReq{From: 2, ViewID: 5, Frontier: map[transport.ID]uint64{0: 100, 1: 7}},
		&joinReq{From: 2, ViewID: 5, Frontier: nil},
		&joinReq{From: 2, ViewID: 5, Frontier: map[transport.ID]uint64{}},
		&vcPrepare{ProposalID: 8, Proposer: 0, Members: []transport.ID{0, 1, 2}},
		&vcFlush{
			ProposalID: 9, From: 1, ViewID: 3,
			Unstable: []*urbData{
				{View: 3, ID: msgID{Sender: 1, Seq: 5}, Kind: 1,
					VC: []uint64{0, 4}, Body: int64(-12), Acks: []uint64{6, 5}},
			},
			Orders:  []orderEntry{{ID: msgID{Sender: 0, Seq: 6}, GSeq: 41}},
			SeqNext: 6,
		},
		&vcFlush{ProposalID: 1, From: 0, ViewID: 1},
		&vcInstall{
			ProposalID: 10,
			View: View{ID: 6, Members: []transport.ID{0, 1, 2, 3}, Primary: true,
				Rejoined: []transport.ID{3}},
			Deliveries: []*urbData{
				{View: 5, ID: msgID{Sender: 2, Seq: 8}, Kind: 0, Body: true},
			},
			Orders:   []orderEntry{{ID: msgID{Sender: 2, Seq: 8}, GSeq: 50}},
			HasState: true,
			State:    "opaque state blob",
		},
		&vcInstall{ProposalID: 2, View: View{ID: 1, Members: []transport.ID{0}}},
		&vcStale{ViewID: 99},
		&ejectNotice{ViewID: 6},
	}

	for _, want := range msgs {
		b, err := wire.AppendAny(nil, want)
		if err != nil {
			t.Fatalf("encode %#v: %v", want, err)
		}
		r := wire.NewReader(b)
		got, err := wire.ReadAny(r)
		if err != nil {
			t.Fatalf("decode %#v: %v", want, err)
		}
		if r.Len() != 0 {
			t.Errorf("%T left %d trailing bytes", want, r.Len())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("roundtrip %T:\n got  %#v\n want %#v", want, got, want)
		}
	}
}

// TestBinaryRoundtripThroughEnvelope checks the full tcpnet body path for one
// representative GCS message: frame, envelope, sender, tagged payload.
func TestBinaryRoundtripThroughEnvelope(t *testing.T) {
	RegisterWire()
	want := &urbData{View: 2, ID: msgID{Sender: 0, Seq: 1}, Kind: 1,
		VC: []uint64{1, 0, 0}, Acks: []uint64{1, 2, 3}, Body: "env"}
	frame, err := wire.AppendEnvelope(nil, 3, want)
	if err != nil {
		t.Fatal(err)
	}
	body, _, err := wire.ReadFrame(bytes.NewReader(frame), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	from, payload, err := wire.DecodeEnvelope(body)
	if err != nil {
		t.Fatal(err)
	}
	if from != 3 {
		t.Fatalf("from = %d", from)
	}
	if !reflect.DeepEqual(payload, want) {
		t.Fatalf("payload = %#v, want %#v", payload, want)
	}
}

// TestBinaryRejectsTruncation cuts an encoded message at every byte offset:
// the decoder must return an error (never panic, never succeed) for each
// strict prefix.
func TestBinaryRejectsTruncation(t *testing.T) {
	RegisterWire()
	for _, m := range []any{
		&urbData{View: 3, ID: msgID{Sender: 1, Seq: 6}, Kind: 1,
			VC: []uint64{0, 5, 300}, Body: "y", Acks: []uint64{2, 4, 1 << 20}},
		&urbAck{View: 3, From: 1, Held: []uint64{7, 1 << 33, 0}},
		&vcFlush{
			ProposalID: 9, From: 1, ViewID: 3,
			Unstable: []*urbData{
				{View: 3, ID: msgID{Sender: 1, Seq: 5}, Kind: 1,
					VC: []uint64{0, 4}, Body: "x", Acks: []uint64{1, 4}},
			},
			Orders:  []orderEntry{{ID: msgID{Sender: 0, Seq: 6}, GSeq: 41}},
			SeqNext: 6,
		},
	} {
		full, err := wire.AppendAny(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(full); cut++ {
			r := wire.NewReader(full[:cut])
			v, err := wire.ReadAny(r)
			if err == nil && r.Err() == nil {
				t.Fatalf("%T: prefix of %d/%d bytes decoded to %#v without error", m, cut, len(full), v)
			}
		}
	}
}

// TestBinaryRejectsOverlongVectors: a member-indexed vector longer than a
// view can be is refused at its length, before the decoder allocates it, even
// when the frame does hold that many entries.
func TestBinaryRejectsOverlongVectors(t *testing.T) {
	RegisterWire()
	long := make([]uint64, maxMembers+1)
	for _, m := range []any{
		&urbData{View: 1, ID: msgID{Sender: 0, Seq: 1}, Kind: 1, VC: long, Body: "x"},
		&urbData{View: 1, ID: msgID{Sender: 0, Seq: 1}, Kind: 1, VC: []uint64{0}, Acks: long, Body: "x"},
		&urbAck{View: 1, From: 0, Held: long},
	} {
		b, err := wire.AppendAny(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := wire.ReadAny(wire.NewReader(b)); err == nil {
			t.Fatalf("%T with a %d-entry vector decoded to %#v", m, len(long), v)
		}
	}
	at := make([]uint64, maxMembers)
	b, err := wire.AppendAny(nil, &urbAck{View: 1, From: 0, Held: at})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadAny(wire.NewReader(b)); err != nil {
		t.Fatalf("a %d-entry vector was refused: %v", maxMembers, err)
	}
}
