package core

import (
	"errors"
	"reflect"
	"testing"

	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/transport"
	"github.com/alcstm/alc/internal/wire"
)

// TestBinaryRoundtrip pushes every replication-layer wire type through the
// binary codec and requires decode(encode(m)) to be deeply equal, including
// nil-ness (a nil xferState.Frontier means "no baseline frontier" to the
// joiner's durability tier). Empty slices encode as nil by convention, so
// fixtures use nil, never []T{}.
func TestBinaryRoundtrip(t *testing.T) {
	RegisterWire()

	txn := stm.TxnID{Replica: 2, Seq: 31}
	lid := lease.RequestID{Proc: 1, Seq: 7}
	ws := stm.WriteSet{
		{Box: "acct:1", Value: 100},
		{Box: "acct:2", Value: "stringy"},
		{Box: "acct:3", Value: nil},
	}

	msgs := []any{
		&applyWSBatchMsg{Entries: []applyWSEntry{
			{TxnID: txn, LeaseID: lid, WS: ws},
			{TxnID: stm.TxnID{Replica: 0, Seq: 32}, LeaseID: lid, WS: stm.WriteSet{{Box: "b", Value: int64(-9)}}},
			{TxnID: stm.TxnID{}, LeaseID: lease.RequestID{}, WS: nil},
		}},
		&applyWSBatchMsg{},
		&certMsg{TxnID: txn, SnapshotOrd: -1, WS: ws,
			RSBloom: []byte{0xde, 0xad}, RSExact: nil},
		&certMsg{TxnID: txn, SnapshotOrd: 44, WS: ws,
			RSBloom: nil, RSExact: []string{"acct:1", "acct:9"}},
		&certPayload{TxnID: txn,
			RS: stm.ReadSet{{Box: "r1", Writer: stm.TxnID{Replica: 3, Seq: 2}}},
			WS: ws},
		&lease.Request{ID: lid,
			Classes:   []lease.ConflictClass{0, 1 << 60, 42},
			Wildcard:  false,
			FreeFirst: []lease.RequestID{{Proc: 0, Seq: 1}},
			Payload:   "piggyback"},
		&lease.Request{ID: lid, Wildcard: true},
		&lease.Freed{IDs: []lease.RequestID{{Proc: 2, Seq: 9}, {Proc: 0, Seq: 3}}},
		&lease.Freed{},
		&lease.Freed{IDs: []lease.RequestID{{Proc: 1, Seq: 4}}, Resent: true},
		&lease.State{
			Requests: []*lease.Request{
				{ID: lid, Classes: []lease.ConflictClass{7}, Payload: int64(5)},
			},
			Queues:  map[lease.ConflictClass][]lease.RequestID{7: {lid}},
			Pos:     []uint64{12},
			NextPos: 13,
		},
		&lease.State{},
		&xferState{
			Store: stm.StoreSnapshot{Clock: 88, Boxes: []stm.BoxState{
				{Box: "acct:1", Writer: txn, Value: 100},
			}},
			Leases:   &lease.State{NextPos: 4},
			CertLog:  []certLogEntry{{TS: 87, Boxes: []string{"acct:1"}}},
			Frontier: map[transport.ID]uint64{0: 12, 2: 31},
		},
		&xferState{Store: stm.StoreSnapshot{Clock: 0}, Leases: nil, Frontier: nil},
		&xferState{
			Delta:   true,
			Entries: []applyWSEntry{{TxnID: txn, LeaseID: lid, Ord: 3, WS: ws}},
			Leases:  &lease.State{NextPos: 1},
			CertLog: []certLogEntry{{TS: 1, Boxes: nil}},
		},
		&xferState{Delta: true},
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

// TestBinaryRejectsRetiredTags: the tags of the retired single write-set
// message, delta state transfer and shard-group envelopes stay unregistered,
// so a payload a pre-change peer tagged with one of them is refused as an
// unknown tag rather than decoded as something else.
func TestBinaryRejectsRetiredTags(t *testing.T) {
	RegisterWire()
	body, err := wire.AppendAny(nil, &applyWSBatchMsg{Entries: []applyWSEntry{
		{TxnID: stm.TxnID{Replica: 2, Seq: 31}, WS: stm.WriteSet{{Box: "acct:1", Value: 100}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tag  byte
	}{
		{"single write-set", 0x20},
		{"delta state transfer", 0x28},
		{"shard envelope", 0x29},
		{"group envelope", 0x2A},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte{tc.tag}, body[1:]...)
			v, err := wire.ReadAny(wire.NewReader(b))
			if !errors.Is(err, wire.ErrUnknownTag) {
				t.Fatalf("tag 0x%02x decoded to %#v, err %v; want ErrUnknownTag", tc.tag, v, err)
			}
		})
	}
}

// TestBinaryRejectsTruncation cuts an encoded xferState (the widest message)
// in each of its forms at every byte offset: each strict prefix must produce
// an error, never a panic or a silently short message.
func TestBinaryRejectsTruncation(t *testing.T) {
	RegisterWire()
	leases := &lease.State{
		Requests: []*lease.Request{{ID: lease.RequestID{Proc: 1, Seq: 7}}},
		Queues:   map[lease.ConflictClass][]lease.RequestID{3: {{Proc: 1, Seq: 7}}},
		Pos:      []uint64{0},
		NextPos:  1,
	}
	certLog := []certLogEntry{{TS: 87, Boxes: []string{"acct:1"}}}
	for _, m := range []*xferState{
		{
			Store: stm.StoreSnapshot{Clock: 88, Boxes: []stm.BoxState{
				{Box: "acct:1", Writer: stm.TxnID{Replica: 2, Seq: 31}, Value: 100},
			}},
			Leases:   leases,
			CertLog:  certLog,
			Frontier: map[transport.ID]uint64{0: 12},
			TOAbove:  []int64{14},
		},
		{
			Delta: true,
			Entries: []applyWSEntry{{TxnID: stm.TxnID{Replica: 2, Seq: 32}, Ord: 5,
				WS: stm.WriteSet{{Box: "acct:1", Value: 101}}}},
			Leases:  leases,
			CertLog: certLog,
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
				t.Fatalf("delta=%t: prefix of %d/%d bytes decoded to %#v without error", m.Delta, cut, len(full), v)
			}
		}
	}
}
