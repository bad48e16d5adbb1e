package clientsrv

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/wire"
)

// mapBackend is an in-memory Backend: the client protocol's semantics
// without a replica underneath.
type mapBackend struct {
	mu sync.Mutex
	m  map[string]int64
}

func newMapBackend() *mapBackend { return &mapBackend{m: make(map[string]int64)} }

func (b *mapBackend) Exec(op wire.Op, key string, arg int64) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch op {
	case wire.OpPing:
		return 0, nil
	case wire.OpGet:
		v, ok := b.m[key]
		if !ok {
			return 0, ErrNotFound
		}
		return v, nil
	case wire.OpSet:
		b.m[key] = arg
		return arg, nil
	case wire.OpInc:
		b.m[key] += arg
		return b.m[key], nil
	}
	return 0, fmt.Errorf("bad op %d", op)
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestClientServerRoundtrip(t *testing.T) {
	s := newTestServer(t, Config{Backend: newMapBackend()})
	c := Dial(ClientConfig{Addr: s.Addr(), Conns: 2})
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if _, err := c.Get("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
	}
	if err := c.Set("k", 41); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if v, err := c.Inc("k", 1); err != nil || v != 42 {
		t.Fatalf("Inc = (%d, %v), want (42, nil)", v, err)
	}
	if v, err := c.Get("k"); err != nil || v != 42 {
		t.Fatalf("Get = (%d, %v), want (42, nil)", v, err)
	}

	st := s.Stats()
	if st.Conns == 0 || st.Admitted < 5 || st.Completed < 5 || st.Shed != 0 {
		t.Fatalf("stats after happy path: %+v", st)
	}
}

// TestPipelinedOutOfOrder proves responses are matched by Seq, not arrival
// order: a slow request issued first must not delay a fast one pipelined
// behind it on the same connection.
func TestPipelinedOutOfOrder(t *testing.T) {
	gate := make(chan struct{})
	backend := BackendFunc(func(op wire.Op, key string, arg int64) (int64, error) {
		if key == "slow" {
			<-gate
		}
		return arg, nil
	})
	s := newTestServer(t, Config{Backend: backend})
	c := Dial(ClientConfig{Addr: s.Addr(), Conns: 1})
	defer c.Close()

	slowDone := make(chan error, 1)
	go func() {
		err := c.Set("slow", 1)
		slowDone <- err
	}()
	// The fast request completes while the slow one is parked in its handler.
	deadline := time.After(5 * time.Second)
	for {
		if err := c.Set("fast", 2); err != nil {
			t.Fatalf("fast Set: %v", err)
		}
		select {
		case err := <-slowDone:
			t.Fatalf("slow request finished early: %v", err)
		case <-deadline:
			t.Fatal("fast requests never completed ahead of the slow one")
		default:
		}
		if s.Stats().Completed > 0 {
			break
		}
	}
	close(gate)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow Set after release: %v", err)
	}
}

// TestHandshakeRejectsForeignProtocol dials the client port speaking the
// inter-replica codec: the server must refuse at handshake and count it.
func TestHandshakeRejectsForeignProtocol(t *testing.T) {
	s := newTestServer(t, Config{Backend: newMapBackend()})

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := wire.WriteHandshake(conn, wire.CodecWire); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	// The server closes the connection without answering.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a replica-codec handshake on the client port")
	}
	if n := s.Stats().HandshakeRejects; n != 1 {
		t.Fatalf("HandshakeRejects = %d, want 1", n)
	}
}

// TestShedDeterministic fills the server to exactly MaxPending with gated
// requests, then proves the next request is shed with StatusOverloaded — not
// queued, not hung, not disconnected — and that draining the gate restores
// admission.
func TestShedDeterministic(t *testing.T) {
	const pending = 2
	started := make(chan struct{}, 16)
	gate := make(chan struct{})
	backend := BackendFunc(func(op wire.Op, key string, arg int64) (int64, error) {
		if key == "gated" {
			started <- struct{}{}
			<-gate
		}
		return arg, nil
	})
	s := newTestServer(t, Config{Backend: backend, MaxInflight: 8, MaxPending: pending})
	c := Dial(ClientConfig{Addr: s.Addr(), Conns: 1})
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < pending; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Set("gated", 1); err != nil {
				t.Errorf("gated Set: %v", err)
			}
		}()
	}
	for i := 0; i < pending; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("gated requests never reached the backend")
		}
	}

	// Server full: the next request must bounce with the retryable status.
	p, err := c.Do(wire.OpSet, "shed-me", 1)
	if err != nil {
		t.Fatalf("Do while saturated: %v", err)
	}
	if p.Status != wire.StatusOverloaded {
		t.Fatalf("status while saturated = %v, want overloaded", p.Status)
	}
	if _, err := c.result(p, nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("result maps overloaded to %v, want ErrOverloaded", err)
	}

	close(gate)
	wg.Wait()
	if err := c.Set("after-drain", 1); err != nil {
		t.Fatalf("Set after drain: %v", err)
	}
	st := s.Stats()
	if st.Shed == 0 {
		t.Fatalf("stats recorded no shed: %+v", st)
	}
	// A request leaves inflight just after its response is written, so the
	// client can read the last response first.
	for deadline := time.Now().Add(5 * time.Second); st.Inflight != 0 && time.Now().Before(deadline); st = s.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.Inflight != 0 {
		t.Fatalf("inflight = %d after drain, want 0", st.Inflight)
	}
}

// TestOverloadSoak drives the server far past its admission limit and checks
// the soak contract: shed requests get the retryable overloaded response
// (never a hang or disconnect), the server's goroutine count stays bounded by
// the admission limits rather than the offered load, and admitted traffic
// keeps its throughput. Run under -race in CI; -short shrinks the windows and
// widens the throughput tolerance.
func TestOverloadSoak(t *testing.T) {
	// Service time dominates per-request CPU cost so the measured rates are
	// admission-bound, not scheduler-bound (CI boxes can be single-core).
	const (
		maxInflight = 4
		maxPending  = 8
		execDelay   = 5 * time.Millisecond
	)
	window := 2 * time.Second
	tolerance := 0.10
	if testing.Short() {
		window = 400 * time.Millisecond
		tolerance = 0.35 // scheduler noise dominates short windows
	}

	backend := BackendFunc(func(op wire.Op, key string, arg int64) (int64, error) {
		time.Sleep(execDelay) // fixed service time: capacity is admission-bound
		return arg, nil
	})
	s := newTestServer(t, Config{Backend: backend, MaxInflight: maxInflight, MaxPending: maxPending})

	run := func(workers, conns int, window time.Duration) (ok, shed int64) {
		c := Dial(ClientConfig{Addr: s.Addr(), Conns: conns})
		defer c.Close()
		var wg sync.WaitGroup
		var stop atomic.Bool
		var nOK, nShed atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for !stop.Load() {
					_, err := c.Inc(fmt.Sprintf("soak:%d", w), 1)
					switch {
					case err == nil:
						nOK.Add(1)
					case errors.Is(err, ErrOverloaded):
						nShed.Add(1)
						time.Sleep(5 * time.Millisecond) // the contract: back off, retry
					default:
						t.Errorf("worker %d: %v", w, err)
						return
					}
				}
			}(w)
		}
		time.Sleep(window)
		stop.Store(true)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("workers hung: a shed or admitted request never completed")
		}
		return nOK.Load(), nShed.Load()
	}

	// Baseline: exactly the server's concurrency capacity (same pool shape as
	// the overload run, so only the offered load differs).
	baseOK, baseShed := run(maxPending, 8, window)
	if baseOK == 0 {
		t.Fatal("baseline made no progress")
	}

	// Overload: 4x the capacity. The excess must shed, not queue. (The
	// multiplier is modest because shed responses still cost read-loop CPU:
	// on small CI boxes a huge spin would measure CPU contention, not
	// admission control.)
	goroutinesBefore := runtime.NumGoroutine()
	overOK, overShed := run(4*maxPending, 8, window)
	if overShed == 0 {
		t.Fatalf("overload run shed nothing (ok=%d): admission control inactive", overOK)
	}
	// Goroutines during the run are bounded by workers + admission limits,
	// not by offered load; after the run they drain back.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+16 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: %d now vs %d before",
				runtime.NumGoroutine(), goroutinesBefore)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Admitted throughput under overload stays within tolerance of baseline:
	// shedding is answered from the read loop and costs no execution slot.
	baseRate := float64(baseOK) / window.Seconds()
	overRate := float64(overOK) / window.Seconds()
	if overRate < baseRate*(1-tolerance) {
		t.Fatalf("admitted throughput collapsed under overload: %.0f/s vs baseline %.0f/s (tolerance %.0f%%)",
			overRate, baseRate, tolerance*100)
	}
	t.Logf("baseline %.0f/s (shed %d), overload %.0f/s (shed %d)",
		baseRate, baseShed, overRate, overShed)

	st := s.Stats()
	if st.Inflight != 0 {
		t.Fatalf("inflight = %d after soak, want 0", st.Inflight)
	}
	if st.Shed < overShed {
		t.Fatalf("server shed counter %d < client-observed %d", st.Shed, overShed)
	}
}

// TestWorkersBoundedPerConnection: a connection executes its requests on at
// most MaxInflight reused workers, not on a goroutine per request, and they
// exit with the connection.
func TestWorkersBoundedPerConnection(t *testing.T) {
	const maxInflight = 4
	baseline := runtime.NumGoroutine()
	var (
		mu      sync.Mutex
		execs   int
		workers = make(map[string]bool) // goroutine IDs that ran Exec
	)
	backend := BackendFunc(func(op wire.Op, key string, arg int64) (int64, error) {
		buf := make([]byte, 64)
		id := strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1] // "goroutine <id> [running]:"
		mu.Lock()
		execs++
		workers[id] = true
		mu.Unlock()
		return arg, nil
	})
	s, err := Serve("127.0.0.1:0", Config{Backend: backend, MaxInflight: maxInflight, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	c := Dial(ClientConfig{Addr: s.Addr(), Conns: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ { // more callers than slots, so the pool fills
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				if _, err := c.Inc("k", 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if execs != 2000 || len(workers) > maxInflight {
		t.Fatalf("%d requests ran on %d goroutines, want 2000 on at most %d", execs, len(workers), maxInflight)
	}
	_ = c.Close()
	_ = s.Close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to the baseline after Close: %d now vs %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBackendErrorMapsToStatusErr checks the third disposition: a backend
// failure surfaces as StatusErr with the message, not a dropped connection.
func TestBackendErrorMapsToStatusErr(t *testing.T) {
	backend := BackendFunc(func(op wire.Op, key string, arg int64) (int64, error) {
		return 0, fmt.Errorf("disk on fire")
	})
	s := newTestServer(t, Config{Backend: backend})
	c := Dial(ClientConfig{Addr: s.Addr(), Conns: 1})
	defer c.Close()

	p, err := c.Do(wire.OpSet, "k", 1)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if p.Status != wire.StatusErr || p.Err != "disk on fire" {
		t.Fatalf("response = %+v, want StatusErr with message", p)
	}
	// The connection is still usable.
	if _, err := c.Do(wire.OpPing, "", 0); err != nil {
		t.Fatalf("Ping after error: %v", err)
	}
}

// TestServerCloseFailsWaiters proves Close is prompt: clients waiting on
// responses get transport errors, not hangs.
func TestServerCloseFailsWaiters(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{}, 1)
	backend := BackendFunc(func(op wire.Op, key string, arg int64) (int64, error) {
		started <- struct{}{}
		<-gate
		return 0, nil
	})
	s := newTestServer(t, Config{Backend: backend})
	c := Dial(ClientConfig{Addr: s.Addr(), Conns: 1})
	defer c.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := c.Do(wire.OpSet, "k", 1)
		errc <- err
	}()
	<-started
	go func() {
		// Unblock the gated handler so Close's wg.Wait can finish.
		time.Sleep(50 * time.Millisecond)
		gate <- struct{}{}
	}()
	_ = s.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("waiter got a response after Close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter hung across server Close")
	}
}
