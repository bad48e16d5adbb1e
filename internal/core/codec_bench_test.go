package core

import (
	"testing"

	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/wire"
)

// Codec microbenchmarks (benchmark/ is the end-to-end half): encode and
// decode of a representative group-commit write-set batch — the message the
// hot tcpnet path carries most — measured with allocs/op. The gob side of
// PR 8's A/B (its rows are kept in EXPERIMENTS.md) went with the gob
// registrations it measured; it is reproducible from commit c837db2.

// benchBatch builds a group-commit batch of 16 transactions, 4 writes each,
// with small int values — the sharded-bank shape the throughput experiments
// drive.
func benchBatch() *applyWSBatchMsg {
	entries := make([]applyWSEntry, 16)
	for i := range entries {
		ws := make(stm.WriteSet, 4)
		for j := range ws {
			ws[j] = stm.WriteEntry{
				Box:   "acct:00012345:balance",
				Value: 1000*i + j,
			}
		}
		entries[i] = applyWSEntry{
			TxnID:   stm.TxnID{Replica: 2, Seq: uint64(3000 + i)},
			LeaseID: lease.RequestID{Proc: 2, Seq: uint64(40 + i)},
			WS:      ws,
		}
	}
	return &applyWSBatchMsg{Entries: entries}
}

func BenchmarkCodecWireEncode(b *testing.B) {
	RegisterWire()
	msg := benchBatch()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := wire.AppendEnvelope(buf[:0], 2, msg)
		if err != nil {
			b.Fatal(err)
		}
		buf = out
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkCodecWireDecode(b *testing.B) {
	RegisterWire()
	frame, err := wire.AppendEnvelope(nil, 2, benchBatch())
	if err != nil {
		b.Fatal(err)
	}
	body := frame[5:] // strip length prefix + version, as ReadFrame does
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wire.DecodeEnvelope(body); err != nil {
			b.Fatal(err)
		}
	}
}
