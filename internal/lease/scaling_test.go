package lease

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// syncLoop is a lone manager's group that delivers a request back at once
// (optimistically, then in total order) and queues releases, because the
// manager broadcasts them with its lock held.
type syncLoop struct {
	m     *Manager
	freed []*Freed
}

func (b *syncLoop) OABroadcast(body any) error {
	b.m.HandleRequestOpt(body.(*Request))
	b.m.HandleRequestTO(body.(*Request))
	return nil
}

func (b *syncLoop) URBroadcast(body any) error {
	b.freed = append(b.freed, body.(*Freed))
	return nil
}

func (b *syncLoop) deliverFreed() {
	for _, f := range b.freed {
		b.m.HandleFreed(f)
	}
	b.freed = b.freed[:0]
}

// TestRotationCostIndependentOfTableSize holds the point of the class index:
// asynchronous leases are retained, so the table is as large as the working
// set, and neither a reuse nor a rotation (a remote request takes a lease, the
// remote releases it, this replica acquires it again) may pay for the leases
// it does not touch. The scanning table was over 1000x slower at 4096 live
// requests than at 128; the bound of 20x leaves host noise no say.
func TestRotationCostIndependentOfTableSize(t *testing.T) {
	type cost struct{ reuse, rotate time.Duration }
	measure := func(live int) cost {
		lb := &syncLoop{}
		cfg := Config{OptimisticFree: true}
		lb.m = NewManager(0, lb, cfg)
		defer lb.m.Close()
		keys := make([][]string, live)
		for i := range keys {
			keys[i] = []string{fmt.Sprintf("shared:%05d", i)}
			lb.m.Finished(getLeaseT(t, lb.m, keys[i]))
		}
		median := func(f func(i int)) time.Duration {
			d := make([]time.Duration, 301)
			for i := range d {
				start := time.Now()
				f(i)
				d[i] = time.Since(start)
			}
			sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
			return d[len(d)/2]
		}
		var c cost
		c.reuse = median(func(i int) {
			id, ok := lb.m.TryReuse(keys[i*7%live])
			if !ok {
				t.Fatalf("held lease %v not reusable", keys[i*7%live])
			}
			lb.m.Finished(id)
		})
		c.rotate = median(func(i int) {
			key := keys[i*7%live]
			req := &Request{ID: RequestID{Proc: 1, Seq: uint64(i + 1)}, Classes: cfg.Mapper.Classes(key)}
			lb.m.HandleRequestOpt(req)
			lb.m.HandleRequestTO(req)
			lb.deliverFreed()
			lb.m.HandleFreed(&Freed{IDs: []RequestID{req.ID}})
			lb.m.Finished(getLeaseT(t, lb.m, key))
			lb.deliverFreed()
		})
		return c
	}
	small, large := measure(128), measure(4096)
	t.Logf("128 live: reuse %v rotate %v; 4096 live: reuse %v rotate %v", small.reuse, small.rotate, large.reuse, large.rotate)
	if large.rotate > 20*small.rotate {
		t.Errorf("one rotation costs %v at 4096 live requests, %v at 128: more than 20x", large.rotate, small.rotate)
	}
	if large.reuse > 20*small.reuse {
		t.Errorf("one TryReuse costs %v at 4096 live requests, %v at 128: more than 20x", large.reuse, small.reuse)
	}
}
