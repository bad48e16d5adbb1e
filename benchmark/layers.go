package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"github.com/alcstm/alc/internal/clientsrv"
	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/transport"
	"github.com/alcstm/alc/internal/wal"
	"github.com/alcstm/alc/internal/wire"
)

// Layer drivers time calls into one layer's public functions with nothing
// else running, so that a layer's own cost can be laid beside its share of
// an operation. Each runs in the traced run of the workload where its layer
// does most of the work, after the cluster is gone.

const (
	driverBatches = 5               // a driver's figure is the median of this many batches
	roundTimeout  = 5 * time.Second // one message round of a driver
)

// perCall returns what one call of f costs, in nanoseconds: the median over
// driverBatches batches, each sized from a first few calls to take about
// batchBudget, because the layers' costs span five orders of magnitude.
func perCall(f func()) float64 {
	const (
		batchBudget = 40 * time.Millisecond
		probe       = 4
		minCalls    = 2
		maxCalls    = 1 << 20
	)
	start := time.Now()
	for i := 0; i < probe; i++ {
		f()
	}
	each := time.Since(start)/probe + 1
	n := min(max(int(batchBudget/each), minCalls), maxCalls)
	per := make([]float64, driverBatches)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = float64(time.Since(start)) / float64(n)
	}
	return median(per)
}

// medianRound calls round n times after a tenth as many untimed ones and
// returns the median duration in nanoseconds. Rounds wait for a message, so
// each is timed alone: a mean would be set by the few that hit a timer.
func medianRound(n int, round func() error) (float64, error) {
	d := make([]float64, 0, n)
	for i := -n / 10; i < n; i++ {
		start := time.Now()
		if err := round(); err != nil {
			return 0, err
		}
		if i >= 0 {
			d = append(d, float64(time.Since(start)))
		}
	}
	return median(d), nil
}

// --- lease -------------------------------------------------------------------

// loopback is a lone lease manager's group: a request is delivered back at
// once (optimistically, then in total order), a release is queued and
// delivered after the call that caused it, because the manager broadcasts
// releases with its lock held.
type loopback struct {
	m     *lease.Manager
	freed []*lease.Freed
}

func (b *loopback) OABroadcast(body any) error {
	req := body.(*lease.Request)
	b.m.HandleRequestOpt(req)
	b.m.HandleRequestTO(req)
	return nil
}

func (b *loopback) URBroadcast(body any) error {
	b.freed = append(b.freed, body.(*lease.Freed))
	return nil
}

func (b *loopback) deliverFreed() {
	for _, f := range b.freed {
		b.m.HandleFreed(f)
	}
	b.freed = b.freed[:0]
}

// leaseDrivers times the lease table at two sizes: a reuse of a held lease,
// and one rotation of a lease (a remote request takes it, the remote
// releases it, this replica acquires it again), which is what a lease-rotate
// commit that finds its lease gone pays in this layer.
func leaseDrivers(m metricSet) error {
	for _, live := range []int{128, 1024} {
		lb := &loopback{}
		cfg := lease.Config{OptimisticFree: true, DeadlockDetection: true}
		lb.m = lease.NewManager(0, lb, cfg)
		keys := make([][]string, live)
		for i := range keys {
			keys[i] = []string{fmt.Sprintf("shared:%05d", i)}
			id, err := lb.m.GetLease(keys[i])
			if err != nil {
				return fmt.Errorf("lease driver: %w", err)
			}
			lb.m.Finished(id)
		}
		rng := rand.New(rand.NewSource(int64(live)))
		var failed error

		m[fmt.Sprintf("lease.tryreuse_ns_t%d", live)] = perCall(func() {
			id, ok := lb.m.TryReuse(keys[rng.Intn(live)])
			if !ok {
				failed = errors.New("lease driver: held lease not reusable")
				return
			}
			lb.m.Finished(id)
		})

		remote := uint64(0)
		m[fmt.Sprintf("lease.acquire_us_t%d", live)] = perCall(func() {
			key := keys[rng.Intn(live)]
			remote++
			req := &lease.Request{ID: lease.RequestID{Proc: 1, Seq: remote}, Classes: cfg.Mapper.Classes(key)}
			lb.m.HandleRequestOpt(req)
			lb.m.HandleRequestTO(req)
			lb.deliverFreed()
			lb.m.HandleFreed(&lease.Freed{IDs: []lease.RequestID{req.ID}})
			id, err := lb.m.GetLease(key)
			if err != nil {
				failed = err
				return
			}
			lb.m.Finished(id)
			lb.deliverFreed()
		}) / 1e3
		lb.m.Close()
		if failed != nil {
			return failed
		}
	}
	return nil
}

// --- gcs, tcpnet -------------------------------------------------------------

// roundHandler signals an endpoint's own deliveries.
type roundHandler struct {
	self   transport.ID
	ur, to chan struct{}
}

func (h *roundHandler) OnOptDeliver(transport.ID, any) {}
func (h *roundHandler) OnViewChange(gcs.View)          {}
func (h *roundHandler) OnEjected()                     {}
func (h *roundHandler) StateSnapshot() any             { return nil }
func (h *roundHandler) InstallState(any)               {}

func (h *roundHandler) OnTODeliver(from transport.ID, _ any) {
	if from == h.self {
		h.to <- struct{}{}
	}
}

func (h *roundHandler) OnURDeliver(from transport.ID, _ any) {
	if from == h.self {
		h.ur <- struct{}{}
	}
}

func await(ch <-chan struct{}, what string) error {
	select {
	case <-ch:
		return nil
	case <-time.After(roundTimeout):
		return fmt.Errorf("%s: no delivery in %v", what, roundTimeout)
	}
}

// gcsDrivers times one broadcast round on three bare endpoints over loopback
// TCP, from the broadcast call to the sender's own delivery: a URB from the
// view's coordinator, and an OAB from another member, which adds the
// sequencer's ordering message — what a commit and a lease request each wait
// for under the replica.
func gcsDrivers(m metricSet) error {
	trs, err := loopbackTransports(numReplicas)
	if err != nil {
		return fmt.Errorf("gcs driver: %w", err)
	}
	members := []transport.ID{0, 1, 2}
	var (
		eps      []*gcs.Endpoint
		handlers []*roundHandler
	)
	defer func() {
		for _, ep := range eps {
			_ = ep.Close()
		}
		for _, tr := range trs {
			_ = tr.Close()
		}
	}()
	for i, tr := range trs {
		// One round is in flight at a time; the buffer lets the dispatcher
		// move on before the driver has picked the signal up.
		h := &roundHandler{self: transport.ID(i), ur: make(chan struct{}, 1), to: make(chan struct{}, 1)}
		ep, err := gcs.NewEndpoint(tr, h, gcs.Config{Members: members})
		if err != nil {
			return fmt.Errorf("gcs driver: %w", err)
		}
		eps, handlers = append(eps, ep), append(handlers, h)
	}
	for _, ep := range eps {
		ep.Start()
	}
	body := make([]byte, 64)
	const rounds = 1000
	urb, err := medianRound(rounds, func() error {
		if err := eps[0].URBroadcast(body); err != nil {
			return err
		}
		return await(handlers[0].ur, "gcs driver: URB")
	})
	if err != nil {
		return err
	}
	oab, err := medianRound(rounds, func() error {
		if err := eps[1].OABroadcast(body); err != nil {
			return err
		}
		return await(handlers[1].to, "gcs driver: OAB")
	})
	if err != nil {
		return err
	}
	m["gcs.urb_round_us"], m["gcs.oab_round_us"] = urb/1e3, oab/1e3
	return nil
}

// tcpnetDriver times a ping-pong between two transports: two sends, two
// socket hops and two inbox deliveries.
func tcpnetDriver(m metricSet) error {
	trs, err := loopbackTransports(2)
	if err != nil {
		return fmt.Errorf("tcpnet driver: %w", err)
	}
	a, b := trs[0], trs[1]
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for {
			select {
			case msg := <-b.Inbox():
				_ = b.Send(0, msg.Payload)
			case <-b.Done():
				return
			}
		}
	}()
	body := make([]byte, 64)
	rtt, err := medianRound(2000, func() error {
		if err := a.Send(1, body); err != nil {
			return err
		}
		select {
		case <-a.Inbox():
			return nil
		case <-time.After(roundTimeout):
			return fmt.Errorf("tcpnet driver: no echo in %v", roundTimeout)
		}
	})
	_ = a.Close()
	_ = b.Close()
	<-echoDone
	if err != nil {
		return err
	}
	m["tcpnet.rtt_us"] = rtt / 1e3
	return nil
}

// --- wire, clientsrv ---------------------------------------------------------

// wireDriver times the client port's framing: one request encoded and
// decoded, as the client and the server's read loop do per operation.
func wireDriver(m metricSet) error {
	var (
		buf    []byte
		failed error
		seq    uint64
	)
	m["wire.client_frame_ns"] = perCall(func() {
		seq++
		buf = wire.AppendRequest(buf[:0], wire.Request{Seq: seq, Op: wire.OpInc, Key: "priv:00017", Arg: 1})
		// A frame is a 4-byte length and a version byte, then the body.
		if _, err := wire.DecodeClientFrame(buf[5:]); err != nil {
			failed = err
		}
	})
	return failed
}

// clientsrvDriver times a request that does nothing behind the port: the
// whole request turn and nothing else.
func clientsrvDriver(m metricSet) error {
	srv, err := clientsrv.Serve("127.0.0.1:0", clientsrv.Config{
		Backend: clientsrv.BackendFunc(func(wire.Op, string, int64) (int64, error) { return 0, nil }),
		Logf:    discard,
	})
	if err != nil {
		return fmt.Errorf("clientsrv driver: %w", err)
	}
	defer srv.Close()
	cl := clientsrv.Dial(clientsrv.ClientConfig{Addr: srv.Addr(), Conns: 1})
	defer cl.Close()
	ping, err := medianRound(5000, cl.Ping)
	if err != nil {
		return fmt.Errorf("clientsrv driver: %w", err)
	}
	m["clientsrv.ping_us"] = ping / 1e3
	return nil
}

// --- stm ---------------------------------------------------------------------

// stmDrivers times the store alone, at read-mostly's size: a local update
// transaction, a read-only read, and the bulk apply a replica runs for
// delivered write-sets.
func stmDrivers(m metricSet) error {
	s := stm.NewStore()
	keys := make([]string, readItems)
	for i := range keys {
		keys[i] = fmt.Sprintf("item:%05d", i)
		if _, err := s.CreateBox(keys[i], i); err != nil {
			return fmt.Errorf("stm driver: %w", err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	var (
		failed error
		seq    uint64
	)
	writer := func() stm.TxnID { seq++; return stm.TxnID{Replica: 0, Seq: seq} }

	m["stm.update_ns"] = perCall(func() {
		key := keys[rng.Intn(len(keys))]
		tx := s.Begin(false)
		v, err := tx.Read(key)
		if err == nil {
			err = tx.Write(key, v.(int)+1)
		}
		if err == nil {
			err = tx.Commit(writer())
		}
		if err != nil {
			tx.Abort()
			failed = err
		}
	})
	s.GC()
	m["stm.ro_read_ns"] = perCall(func() {
		tx := s.Begin(true)
		if _, err := tx.Read(keys[rng.Intn(len(keys))]); err != nil {
			failed = err
		}
		tx.Abort()
	})
	const perBatch = 16
	batch := make([]stm.TxnWriteSet, perBatch)
	m["stm.apply_ns_per_ws"] = perCall(func() {
		for i := range batch {
			batch[i] = stm.TxnWriteSet{Writer: writer(), WS: stm.WriteSet{{Box: keys[rng.Intn(len(keys))], Value: i}}}
		}
		s.ApplyWriteSets(batch)
	}) / perBatch
	if failed != nil {
		return fmt.Errorf("stm driver: %w", failed)
	}
	return nil
}

// --- wal ---------------------------------------------------------------------

// walDrivers times an append with fsync=always of records the size the
// traced window wrote: in the filesystem the run's WAL was on, and in the
// checkout's own, so that a run kept steady on tmpfs still shows what the
// device would add.
func walDrivers(m metricSet) error {
	size := int(ratio(m["wal.bytes_per_commit"], m["wal.records_per_commit"]))
	if size < 16 {
		size = 16
	}
	payload := make([]byte, size)
	for name, root := range map[string]string{"wal.append_us": walRoot(), "wal.fsync_device_us": scratchRoot} {
		dir, err := makeTempDir(root, "alc-benchmark-waldriver-")
		if err != nil {
			return fmt.Errorf("wal driver: %w", err)
		}
		us, err := timeAppends(filepath.Join(dir, "driver.wal"), payload)
		removeTempDir(dir)
		if err != nil {
			return fmt.Errorf("wal driver: %w", err)
		}
		m[name] = us
	}
	return nil
}

func timeAppends(path string, payload []byte) (float64, error) {
	log, err := wal.OpenLog(path, 0, wal.Options{Policy: wal.PolicyAlways})
	if err != nil {
		return 0, err
	}
	ns, err := medianRound(500, func() error {
		_, err := log.Append(payload)
		return err
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	return ns / 1e3, err
}
