package stm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/alcstm/alc/internal/transport"
)

// Microbenchmarks for the local STM substrate: the costs that bound every
// replicated transaction's local phase.

func BenchmarkRead(b *testing.B) {
	s := NewStore()
	if _, err := s.CreateBox("x", 42); err != nil {
		b.Fatal(err)
	}
	tx := s.Begin(true)
	defer tx.Abort()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.Read("x"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadTracked(b *testing.B) {
	s := NewStore()
	const boxes = 1024
	for i := 0; i < boxes; i++ {
		if _, err := s.CreateBox(fmt.Sprintf("b%04d", i), i); err != nil {
			b.Fatal(err)
		}
	}
	ids := make([]string, boxes)
	for i := range ids {
		ids[i] = fmt.Sprintf("b%04d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := s.Begin(false)
		for _, id := range ids {
			if _, err := tx.Read(id); err != nil {
				b.Fatal(err)
			}
		}
		tx.Abort()
	}
	b.ReportMetric(float64(boxes), "reads/txn")
}

func BenchmarkCommitReadModifyWrite(b *testing.B) {
	s := NewStore()
	if _, err := s.CreateBox("x", 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := s.Begin(false)
		v, err := tx.Read("x")
		if err != nil {
			b.Fatal(err)
		}
		_ = tx.Write("x", v.(int)+1)
		if err := tx.Commit(TxnID{Replica: 1, Seq: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyWriteSet(b *testing.B) {
	s := NewStore()
	ws := make(WriteSet, 16)
	for i := range ws {
		id := fmt.Sprintf("w%02d", i)
		if _, err := s.CreateBox(id, 0); err != nil {
			b.Fatal(err)
		}
		ws[i] = WriteEntry{Box: id, Value: i}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyWriteSet(TxnID{Replica: 2, Seq: uint64(i + 1)}, ws)
	}
	b.ReportMetric(16, "boxes/ws")
}

func BenchmarkValidate(b *testing.B) {
	s := NewStore()
	const boxes = 256
	rs := make(ReadSet, boxes)
	for i := 0; i < boxes; i++ {
		id := fmt.Sprintf("v%03d", i)
		if _, err := s.CreateBox(id, 0); err != nil {
			b.Fatal(err)
		}
		rs[i] = ReadEntry{Box: id}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Stale(rs) != nil {
			b.Fatal("unexpected invalidation")
		}
	}
	b.ReportMetric(boxes, "reads/validate")
}

func BenchmarkSnapshotRestore(b *testing.B) {
	s := NewStore()
	for i := 0; i < 4096; i++ {
		if _, err := s.CreateBox(fmt.Sprintf("s%04d", i), i); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := s.Snapshot()
		dst := NewStore()
		dst.Restore(snap)
	}
	b.ReportMetric(4096, "boxes")
}

// BenchmarkStoreCommitDisjoint measures the store's commit scalability in
// the regime the ALC fast path produces: many committers, disjoint
// write-sets. Each parallel worker read-modify-writes its own private box, so
// no transaction ever conflicts; every commit still takes the store's one
// commit lock, so this measures that lock's cost (sweep with -cpu=1,2,4).
func BenchmarkStoreCommitDisjoint(b *testing.B) {
	s := NewStore()
	const maxWorkers = 128
	for i := 0; i < maxWorkers; i++ {
		if _, err := s.CreateBox(fmt.Sprintf("d%03d", i), 0); err != nil {
			b.Fatal(err)
		}
	}
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := worker.Add(1) - 1
		box := fmt.Sprintf("d%03d", w%maxWorkers)
		seq := uint64(0)
		for pb.Next() {
			tx := s.Begin(false)
			v, err := tx.Read(box)
			if err != nil {
				b.Fatal(err)
			}
			_ = tx.Write(box, v.(int)+1)
			seq++
			if err := tx.Commit(TxnID{Replica: transport.ID(1 + w), Seq: seq}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreCommitContended is the guard-rail companion: every worker
// read-modify-writes the SAME box, so all commits conflict. Conflicted
// attempts retry; the metric of interest is the per-commit cost including
// those retries.
func BenchmarkStoreCommitContended(b *testing.B) {
	s := NewStore()
	if _, err := s.CreateBox("hot", 0); err != nil {
		b.Fatal(err)
	}
	var worker, retries atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := worker.Add(1)
		seq := uint64(0)
		for pb.Next() {
			for {
				tx := s.Begin(false)
				v, err := tx.Read("hot")
				if err != nil {
					b.Fatal(err)
				}
				_ = tx.Write("hot", v.(int)+1)
				seq++
				err = tx.Commit(TxnID{Replica: transport.ID(w), Seq: seq})
				if err == nil {
					break
				}
				if !errors.Is(err, ErrConflict) {
					b.Fatal(err)
				}
				retries.Add(1)
			}
		}
	})
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(retries.Load())/float64(b.N), "retries/commit")
	}
}

// BenchmarkStoreApplyDisjointBatches measures the remote-apply path under
// parallelism: concurrent ApplyWriteSets calls over disjoint key ranges.
func BenchmarkStoreApplyDisjointBatches(b *testing.B) {
	s := NewStore()
	const perBatch = 8
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := worker.Add(1)
		batch := make([]TxnWriteSet, perBatch)
		seq := uint64(0)
		for pb.Next() {
			for i := range batch {
				seq++
				batch[i] = TxnWriteSet{
					Writer: TxnID{Replica: transport.ID(w), Seq: seq},
					WS:     WriteSet{{Box: fmt.Sprintf("a%03d-%d", w, i), Value: int(seq)}},
				}
			}
			s.ApplyWriteSets(batch)
		}
	})
	b.ReportMetric(perBatch, "ws/batch")
}

func BenchmarkGC(b *testing.B) {
	s := NewStore()
	if _, err := s.CreateBox("x", 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 64; j++ {
			s.ApplyWriteSet(TxnID{Replica: 1, Seq: uint64(i*64 + j + 1)}, WriteSet{{Box: "x", Value: j}})
		}
		b.StartTimer()
		s.GC()
	}
}
