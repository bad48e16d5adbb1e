package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alcstm/alc/internal/bank"
	"github.com/alcstm/alc/internal/clientsrv"
)

const (
	// numSlices: the window is cut into this many equal slices and the
	// gated figures are medians over the slices' own figures, so one noisy
	// second on a shared host moves one slice, not the result.
	numSlices = 10
	// opTimeout: an operation with no reply after this long has failed.
	opTimeout = 5 * time.Second
	// shedRetries: a request shed with StatusOverloaded is retried this
	// often before the operation counts as failed.
	shedRetries = 3
	// failBackoff: a caller waits this long after a failed operation, as a
	// client would, instead of hammering a replica that is out of the group.
	failBackoff = 10 * time.Millisecond
)

// load drives a cluster closed-loop: each caller issues its next operation
// when the previous one has returned.
type load struct {
	w       *workload
	c       *cluster
	t       *tracer // nil in the untraced run
	callers [numCallers]*caller
	// win is the window operations are currently recorded into (nil: none).
	win  atomic.Pointer[window]
	stop atomic.Bool
	wg   sync.WaitGroup
	// probeAcked counts the open-loop probe's acknowledged increments per
	// key; its requests overlap, so they cannot use a caller's own table.
	probeAcked  []atomic.Int64
	probeUnsure []atomic.Int64
}

// caller is one closed-loop client pinned to replica id.
type caller struct {
	id  int
	l   *load
	rng *rand.Rand
	// client is the caller's connection pool (nil: in-process calls). The
	// stall guard closes it to fail an operation that got no reply.
	client atomic.Pointer[clientsrv.Client]
	// ordinal counts requests sent on the connection (operations, when
	// in-process); the backend decorator counts the same requests.
	ordinal uint64
	// opStart is when the outstanding operation began (UnixNano; 0: none).
	opStart atomic.Int64

	counts      []int   // operations issued per key
	acked       []int64 // net acknowledged change per key
	unsure      []int64 // operations per key whose outcome is unknown (failed)
	ackedWrites int64   // acknowledged increments and transfers
}

// window is one measured interval.
type window struct {
	start    time.Time
	sliceLen time.Duration
	per      [numCallers]callerWindow
	samples  [numSlices + 1]sample
}

type callerWindow struct {
	slices    [numSlices]hist
	attempted int64
	failed    int64
	ok        atomic.Int64
}

// sample is the process's state at a slice boundary.
type sample struct {
	at  time.Time
	cpu time.Duration
	ok  int64
}

func newLoad(c *cluster, seed int64, t *tracer) *load {
	l := &load{w: c.w, c: c, t: t}
	for i := range l.callers {
		cl := &caller{
			id: i, l: l, rng: callerRNG(seed, i),
			counts: make([]int, len(c.w.keys)),
			acked:  make([]int64, len(c.w.keys)),
			unsure: make([]int64, len(c.w.keys)),
		}
		if c.w.clientPort {
			cl.client.Store(c.dial(i))
		}
		l.callers[i] = cl
	}
	return l
}

// pretouch runs every caller's set-up operations, callers in parallel.
func (l *load) pretouch() error {
	errs := make(chan error, numCallers)
	for _, cl := range l.callers {
		go func(cl *caller) {
			for _, o := range l.w.pretouch(cl.id) {
				if err := cl.do(o); err != nil {
					errs <- fmt.Errorf("pretouch caller %d: %w", cl.id, err)
					return
				}
			}
			errs <- nil
		}(cl)
	}
	var first error
	for range l.callers {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// start launches the callers and the stall guard; they run until halt.
func (l *load) start() {
	for _, cl := range l.callers {
		l.wg.Add(1)
		go func(cl *caller) {
			defer l.wg.Done()
			cl.loop()
		}(cl)
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.stallGuard()
	}()
}

// halt stops the callers and waits for them; window figures are read after.
func (l *load) halt() {
	l.stop.Store(true)
	l.wg.Wait()
}

// close releases the callers' connections.
func (l *load) close() {
	for _, cl := range l.callers {
		if c := cl.client.Load(); c != nil {
			_ = c.Close()
		}
	}
}

// stallGuard fails client-port operations that got no reply in opTimeout by
// closing the connection under them. An in-process call cannot be cancelled;
// a wedge there is the watchdog's to report.
func (l *load) stallGuard() {
	for !l.stop.Load() {
		time.Sleep(100 * time.Millisecond)
		now := time.Now().UnixNano()
		for _, cl := range l.callers {
			began := cl.opStart.Load()
			if began == 0 || time.Duration(now-began) < opTimeout {
				continue
			}
			if c := cl.client.Load(); c != nil {
				_ = c.Close()
			}
		}
	}
}

func (cl *caller) loop() {
	l := cl.l
	for !l.stop.Load() {
		win := l.win.Load()
		o := l.w.next(cl.id, cl.rng, cl.counts)
		start := time.Now()
		err := cl.do(o)
		end := time.Now()
		if err != nil {
			time.Sleep(failBackoff)
		}
		if win == nil || l.win.Load() != win {
			continue // began or ended outside the window
		}
		cw := &win.per[cl.id]
		cw.attempted++
		if err != nil {
			cw.failed++
			continue
		}
		slice := int(end.Sub(win.start) / win.sliceLen)
		if slice >= numSlices {
			slice = numSlices - 1
		}
		cw.slices[slice].observe(end.Sub(start))
		cw.ok.Add(1)
	}
}

// do runs one operation, books its outcome for verification and, in the
// traced run, records its client.op span.
func (cl *caller) do(o op) error {
	t := cl.l.t
	traced := t != nil && t.on.Load()
	n := cl.ordinal + 1 // the request about to be sent
	inProcess := !cl.l.w.clientPort
	var id uint64
	if traced && n%sampleEvery == 0 {
		id = requestID(cl.id, n, layerClientOp)
		if inProcess {
			t.open[cl.id].Store(id)
		}
	}

	cl.counts[o.key]++
	start := time.Now()
	cl.opStart.Store(start.UnixNano())
	err := cl.exec(o)
	cl.opStart.Store(0)

	if traced {
		end := time.Now()
		t.opCalls.Add(1)
		t.opNs.Add(int64(end.Sub(start)))
		if id != 0 {
			if inProcess {
				t.open[cl.id].Store(0)
			}
			t.record(span{Name: "client.op", Start: t.since(start), End: t.since(end), ID: id, Replica: cl.id})
		}
	}

	switch {
	case o.kind == opGet:
	case err != nil:
		cl.unsure[o.key]++
		if o.kind == opTransfer {
			cl.unsure[o.key2]++
		}
	case o.kind == opTransfer:
		// TransferBetween moves a unit from key to key2 on even rounds and
		// back on odd ones.
		delta := int64(1 - 2*(o.round%2))
		cl.acked[o.key] -= delta
		cl.acked[o.key2] += delta
		cl.ackedWrites++
	default:
		cl.acked[o.key]++
		cl.ackedWrites++
	}
	return err
}

// exec sends the operation to the caller's replica and checks the reply.
func (cl *caller) exec(o op) error {
	w := cl.l.w
	if o.kind == opTransfer {
		cl.ordinal++
		return cl.l.c.replicas[cl.id].Atomic(bank.TransferBetween(w.keys[o.key], w.keys[o.key2], o.round))
	}
	for try := 0; ; try++ {
		c := cl.client.Load()
		cl.ordinal++
		var (
			v   int64
			err error
		)
		if o.kind == opGet {
			v, err = c.Get(w.keys[o.key])
		} else {
			v, err = c.Inc(w.keys[o.key], 1)
		}
		switch {
		case errors.Is(err, clientsrv.ErrOverloaded) && try < shedRetries:
			continue
		case err != nil:
			// The connection may be gone (stall guard): the next operation
			// gets a fresh one.
			_ = c.Close()
			cl.client.Store(cl.l.c.dial(cl.id))
			return err
		case o.kind == opGet && v != int64(w.initial[o.key]):
			// Read items are never written, so a Get has one right answer.
			return fmt.Errorf("get %s = %d, want %d", w.keys[o.key], v, w.initial[o.key])
		}
		return nil
	}
}

// measure records operations for d and returns the window. Its figures are
// complete only once the callers have been halted.
func (l *load) measure(d time.Duration) *window {
	w := &window{start: time.Now(), sliceLen: d / numSlices}
	w.samples[0] = sample{at: w.start, cpu: cpuTime()}
	l.win.Store(w)
	for i := 1; i <= numSlices; i++ {
		time.Sleep(time.Until(w.start.Add(time.Duration(i) * w.sliceLen)))
		s := sample{at: time.Now(), cpu: cpuTime()}
		for c := range w.per {
			s.ok += w.per[c].ok.Load()
		}
		w.samples[i] = s
	}
	l.win.Store(nil)
	return w
}

// windowStats are a window's figures. The gated ones are medians over the
// slices; the pooled ones over the whole window are printed beside them.
type windowStats struct {
	Seconds   float64 `json:"seconds"`
	Samples   int64   `json:"samples"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`

	ThroughputOpsS float64 `json:"throughput_ops_s"`
	P50Ms          float64 `json:"closed_p50_ms"`
	P95Ms          float64 `json:"closed_p95_ms"`
	CPUUsPerOp     float64 `json:"cpu_us_per_op"`
	// P99Ms is printed, not gated: see the README on where p99 sits.
	P99Ms float64 `json:"p99_ms"`

	PooledThroughputOpsS float64 `json:"pooled_throughput_ops_s"`
	PooledP50Ms          float64 `json:"pooled_p50_ms"`
	PooledP95Ms          float64 `json:"pooled_p95_ms"`
	PooledP99Ms          float64 `json:"pooled_p99_ms"`
	PooledCPUUsPerOp     float64 `json:"pooled_cpu_us_per_op"`
	// TailPercentile is the highest percentile with at least ten samples
	// beyond it, TailMs its value.
	TailPercentile float64 `json:"tail_percentile"`
	TailMs         float64 `json:"tail_ms"`
	// Slices are the per-slice figures the gated medians are taken over.
	Slices []sliceStats `json:"slices"`
}

type sliceStats struct {
	ThroughputOpsS float64 `json:"throughput_ops_s"`
	P50Ms          float64 `json:"p50_ms"`
	P95Ms          float64 `json:"p95_ms"`
	P99Ms          float64 `json:"p99_ms"`
	CPUUsPerOp     float64 `json:"cpu_us_per_op"`
}

const nsPerMs = 1e6

func (w *window) stats() windowStats {
	var (
		pooled hist
		st     windowStats
	)
	for s := 0; s < numSlices; s++ {
		var h hist
		for c := range w.per {
			h.merge(&w.per[c].slices[s])
		}
		pooled.merge(&h)
		a, b := w.samples[s], w.samples[s+1]
		ops := float64(b.ok - a.ok)
		st.Slices = append(st.Slices, sliceStats{
			ThroughputOpsS: ops / b.at.Sub(a.at).Seconds(),
			P50Ms:          h.quantile(0.50) / nsPerMs,
			P95Ms:          h.quantile(0.95) / nsPerMs,
			P99Ms:          h.quantile(0.99) / nsPerMs,
			CPUUsPerOp:     ratio(float64((b.cpu - a.cpu).Microseconds()), ops),
		})
	}
	for c := range w.per {
		st.Attempted += w.per[c].attempted
		st.Failed += w.per[c].failed
	}
	overSlices := func(f func(sliceStats) float64) float64 {
		v := make([]float64, len(st.Slices))
		for i, s := range st.Slices {
			v[i] = f(s)
		}
		return median(v)
	}
	first, last := w.samples[0], w.samples[numSlices]
	st.Seconds = last.at.Sub(first.at).Seconds()
	st.Samples = pooled.n
	st.ThroughputOpsS = overSlices(func(s sliceStats) float64 { return s.ThroughputOpsS })
	st.P50Ms = overSlices(func(s sliceStats) float64 { return s.P50Ms })
	st.P95Ms = overSlices(func(s sliceStats) float64 { return s.P95Ms })
	st.P99Ms = overSlices(func(s sliceStats) float64 { return s.P99Ms })
	st.CPUUsPerOp = overSlices(func(s sliceStats) float64 { return s.CPUUsPerOp })
	st.PooledThroughputOpsS = float64(last.ok) / st.Seconds
	st.PooledP50Ms = pooled.quantile(0.50) / nsPerMs
	st.PooledP95Ms = pooled.quantile(0.95) / nsPerMs
	st.PooledP99Ms = pooled.quantile(0.99) / nsPerMs
	st.PooledCPUUsPerOp = ratio(float64((last.cpu - first.cpu).Microseconds()), float64(last.ok))
	q, ns := pooled.tailQuantile()
	st.TailPercentile, st.TailMs = q*100, ns/nsPerMs
	return st
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
