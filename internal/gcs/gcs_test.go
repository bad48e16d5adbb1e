package gcs

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/transport"
)

// recorder is a Handler and StateTransfer that captures every upcall.
type recorder struct {
	mu      sync.Mutex
	opt     []string
	to      []string
	ur      []string
	views   []View
	ejected int
	state   any
	// statesFor holds the joiners of every StatesFor call; installs logs
	// the state installs and view changes in upcall order.
	statesFor []map[transport.ID]map[transport.ID]uint64
	installs  []string
	// front is the frontier JoinFrontier advertises.
	front map[transport.ID]uint64

	onURD func(from transport.ID, body any) // optional hook
	onTOD func(from transport.ID, body any)
	onOpt func(from transport.ID, body any)
}

func (r *recorder) OnOptDeliver(from transport.ID, body any) {
	r.mu.Lock()
	r.opt = append(r.opt, fmt.Sprint(body))
	hook := r.onOpt
	r.mu.Unlock()
	if hook != nil {
		hook(from, body)
	}
}

func (r *recorder) OnTODeliver(from transport.ID, body any) {
	r.mu.Lock()
	r.to = append(r.to, fmt.Sprint(body))
	hook := r.onTOD
	r.mu.Unlock()
	if hook != nil {
		hook(from, body)
	}
}

func (r *recorder) OnURDeliver(from transport.ID, body any) {
	r.mu.Lock()
	r.ur = append(r.ur, fmt.Sprint(body))
	hook := r.onURD
	r.mu.Unlock()
	if hook != nil {
		hook(from, body)
	}
}

func (r *recorder) OnViewChange(v View) {
	r.mu.Lock()
	r.views = append(r.views, v)
	r.installs = append(r.installs, fmt.Sprintf("view %d", v.ID))
	r.mu.Unlock()
}

func (r *recorder) OnEjected() {
	r.mu.Lock()
	r.ejected++
	r.mu.Unlock()
}

func (r *recorder) JoinFrontier() map[transport.ID]uint64 { return r.front }

// StatesFor gives each joiner a state naming the view, the joiner and the
// frontier it advertised.
func (r *recorder) StatesFor(view uint64, joiners map[transport.ID]map[transport.ID]uint64) map[transport.ID]any {
	r.mu.Lock()
	r.statesFor = append(r.statesFor, joiners)
	r.mu.Unlock()
	out := make(map[transport.ID]any, len(joiners))
	for j, f := range joiners {
		out[j] = stateFor(view, j, f)
	}
	return out
}

func stateFor(view uint64, joiner transport.ID, f map[transport.ID]uint64) string {
	return fmt.Sprintf("state of view %d for %d (frontier %v)", view, joiner, f)
}

func (r *recorder) InstallState(state any) {
	r.mu.Lock()
	r.state = state
	r.installs = append(r.installs, fmt.Sprintf("install %v", state))
	r.mu.Unlock()
}

func (r *recorder) toSeq() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.to...)
}

func (r *recorder) urSeq() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.ur...)
}

func (r *recorder) optSeq() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.opt...)
}

func (r *recorder) lastView() (View, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.views) == 0 {
		return View{}, false
	}
	return r.views[len(r.views)-1], true
}

type testGroup struct {
	net  *memnet.Network
	eps  []*Endpoint
	recs []*recorder
	ids  []transport.ID
}

func testConfig(ids []transport.ID) Config {
	return Config{
		Members:           ids,
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      100 * time.Millisecond,
		FlushTimeout:      250 * time.Millisecond,
		RetransmitAfter:   50 * time.Millisecond,
		Tick:              5 * time.Millisecond,
	}
}

func newTestGroup(t *testing.T, n int, netCfg memnet.Config) *testGroup {
	t.Helper()
	g := &testGroup{net: memnet.New(netCfg)}
	for i := 0; i < n; i++ {
		g.ids = append(g.ids, transport.ID(i))
	}
	for i := 0; i < n; i++ {
		tr, err := g.net.Endpoint(transport.ID(i))
		if err != nil {
			t.Fatalf("memnet endpoint %d: %v", i, err)
		}
		rec := &recorder{}
		ep, err := NewEndpoint(tr, rec, testConfig(g.ids))
		if err != nil {
			t.Fatalf("gcs endpoint %d: %v", i, err)
		}
		ep.Start()
		g.eps = append(g.eps, ep)
		g.recs = append(g.recs, rec)
	}
	t.Cleanup(func() {
		for _, ep := range g.eps {
			_ = ep.Close()
		}
		g.net.Close()
	})
	return g
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestURBDeliveredEverywhere(t *testing.T) {
	g := newTestGroup(t, 3, memnet.Config{Latency: time.Millisecond})

	if err := g.eps[0].URBroadcast("hello"); err != nil {
		t.Fatalf("URBroadcast: %v", err)
	}
	for i, rec := range g.recs {
		rec := rec
		waitFor(t, 2*time.Second, fmt.Sprintf("UR delivery at %d", i), func() bool {
			return len(rec.urSeq()) == 1
		})
		if got := rec.urSeq()[0]; got != "hello" {
			t.Fatalf("node %d delivered %q", i, got)
		}
	}
}

func TestURBFIFOOrderPerSender(t *testing.T) {
	g := newTestGroup(t, 3, memnet.Config{Latency: time.Millisecond, Jitter: time.Millisecond})

	const count = 50
	for i := 0; i < count; i++ {
		if err := g.eps[1].URBroadcast(fmt.Sprintf("m%03d", i)); err != nil {
			t.Fatalf("URBroadcast %d: %v", i, err)
		}
	}
	for n, rec := range g.recs {
		rec := rec
		waitFor(t, 5*time.Second, "all UR deliveries", func() bool { return len(rec.urSeq()) == count })
		seq := rec.urSeq()
		for i := 0; i < count; i++ {
			if seq[i] != fmt.Sprintf("m%03d", i) {
				t.Fatalf("node %d: position %d = %q (FIFO violated)", n, i, seq[i])
			}
		}
	}
}

func TestURBCausalOrderAcrossSenders(t *testing.T) {
	g := newTestGroup(t, 3, memnet.Config{Latency: 2 * time.Millisecond, Jitter: 3 * time.Millisecond})

	// Node 1 reacts to "cause" by broadcasting "effect": every node must
	// deliver cause before effect.
	g.recs[1].onURD = func(from transport.ID, body any) {
		if body == "cause" {
			_ = g.eps[1].URBroadcast("effect")
		}
	}
	if err := g.eps[0].URBroadcast("cause"); err != nil {
		t.Fatalf("URBroadcast: %v", err)
	}
	for n, rec := range g.recs {
		rec := rec
		waitFor(t, 5*time.Second, "both deliveries", func() bool { return len(rec.urSeq()) == 2 })
		seq := rec.urSeq()
		if seq[0] != "cause" || seq[1] != "effect" {
			t.Fatalf("node %d delivered %v, want [cause effect]", n, seq)
		}
	}
}

func TestOABTotalOrderUnderConcurrency(t *testing.T) {
	g := newTestGroup(t, 3, memnet.Config{Latency: time.Millisecond, Jitter: 2 * time.Millisecond})

	const perNode = 30
	var wg sync.WaitGroup
	for n := range g.eps {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < perNode; i++ {
				if err := g.eps[n].OABroadcast(fmt.Sprintf("n%d-%03d", n, i)); err != nil {
					t.Errorf("OABroadcast: %v", err)
					return
				}
			}
		}(n)
	}
	wg.Wait()

	total := perNode * len(g.eps)
	for i, rec := range g.recs {
		rec := rec
		waitFor(t, 10*time.Second, fmt.Sprintf("TO deliveries at %d", i), func() bool {
			return len(rec.toSeq()) == total
		})
	}
	ref := g.recs[0].toSeq()
	for i := 1; i < len(g.recs); i++ {
		if got := g.recs[i].toSeq(); !reflect.DeepEqual(ref, got) {
			t.Fatalf("total order differs between node 0 and node %d:\n%v\nvs\n%v", i, ref, got)
		}
	}
}

func TestOABOptimisticPrecedesFinal(t *testing.T) {
	g := newTestGroup(t, 3, memnet.Config{Latency: time.Millisecond})

	if err := g.eps[2].OABroadcast("x"); err != nil {
		t.Fatalf("OABroadcast: %v", err)
	}
	for i, rec := range g.recs {
		rec := rec
		waitFor(t, 2*time.Second, "TO delivery", func() bool { return len(rec.toSeq()) == 1 })
		if len(rec.optSeq()) != 1 {
			t.Fatalf("node %d: opt deliveries = %v", i, rec.optSeq())
		}
	}
}

func TestOABFromEverySenderIncludingSequencer(t *testing.T) {
	g := newTestGroup(t, 2, memnet.Config{Latency: time.Millisecond})

	// Node 0 is the sequencer; ensure self-sequencing works.
	if err := g.eps[0].OABroadcast("from-seq"); err != nil {
		t.Fatalf("OABroadcast: %v", err)
	}
	if err := g.eps[1].OABroadcast("from-other"); err != nil {
		t.Fatalf("OABroadcast: %v", err)
	}
	for i, rec := range g.recs {
		rec := rec
		waitFor(t, 2*time.Second, fmt.Sprintf("2 TO at %d", i), func() bool { return len(rec.toSeq()) == 2 })
	}
	if !reflect.DeepEqual(g.recs[0].toSeq(), g.recs[1].toSeq()) {
		t.Fatalf("order differs: %v vs %v", g.recs[0].toSeq(), g.recs[1].toSeq())
	}
}

func TestInitialViewAnnounced(t *testing.T) {
	g := newTestGroup(t, 3, memnet.Config{})
	for i, rec := range g.recs {
		rec := rec
		waitFor(t, 2*time.Second, "initial view", func() bool {
			_, ok := rec.lastView()
			return ok
		})
		v, _ := rec.lastView()
		if v.ID != 1 || len(v.Members) != 3 || !v.Primary {
			t.Fatalf("node %d initial view = %v", i, v)
		}
	}
	if g.eps[0].CurrentView().Coordinator() != 0 {
		t.Fatalf("coordinator = %d, want 0", g.eps[0].CurrentView().Coordinator())
	}
}

func TestCrashTriggersViewChange(t *testing.T) {
	g := newTestGroup(t, 3, memnet.Config{Latency: time.Millisecond})

	g.net.Crash(2)
	for _, i := range []int{0, 1} {
		rec := g.recs[i]
		waitFor(t, 5*time.Second, fmt.Sprintf("view without node 2 at %d", i), func() bool {
			v, ok := rec.lastView()
			return ok && len(v.Members) == 2 && !v.Contains(2)
		})
	}

	// The group remains operational.
	if err := g.eps[0].URBroadcast("after-crash"); err != nil {
		t.Fatalf("URBroadcast: %v", err)
	}
	waitFor(t, 2*time.Second, "post-crash delivery", func() bool {
		return len(g.recs[1].urSeq()) >= 1
	})
}

func TestCrashedSequencerFailsOver(t *testing.T) {
	g := newTestGroup(t, 3, memnet.Config{Latency: time.Millisecond})

	g.net.Crash(0) // node 0 is coordinator+sequencer
	for _, i := range []int{1, 2} {
		rec := g.recs[i]
		waitFor(t, 5*time.Second, "view without sequencer", func() bool {
			v, ok := rec.lastView()
			return ok && !v.Contains(0) && len(v.Members) == 2
		})
	}
	// OAB still works under the new sequencer (node 1).
	if err := g.eps[1].OABroadcast("a"); err != nil {
		t.Fatalf("OABroadcast: %v", err)
	}
	if err := g.eps[2].OABroadcast("b"); err != nil {
		t.Fatalf("OABroadcast: %v", err)
	}
	for _, i := range []int{1, 2} {
		rec := g.recs[i]
		waitFor(t, 5*time.Second, "TO under new sequencer", func() bool { return len(rec.toSeq()) == 2 })
	}
	if !reflect.DeepEqual(g.recs[1].toSeq(), g.recs[2].toSeq()) {
		t.Fatalf("order differs after failover")
	}
}

func TestVirtualSynchronyUnderCrash(t *testing.T) {
	g := newTestGroup(t, 3, memnet.Config{Latency: time.Millisecond})

	// Broadcast a storm from all nodes, crash node 2 mid-storm.
	var wg sync.WaitGroup
	for n := 0; n < 3; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				_ = g.eps[n].OABroadcast(fmt.Sprintf("n%d-%03d", n, i))
				if n == 2 && i == 20 {
					g.net.Crash(2)
					return
				}
			}
		}(n)
	}
	wg.Wait()

	for _, i := range []int{0, 1} {
		rec := g.recs[i]
		waitFor(t, 10*time.Second, "post-crash view", func() bool {
			v, ok := rec.lastView()
			return ok && len(v.Members) == 2
		})
	}
	// Allow deliveries to quiesce, then compare: survivors must agree on
	// the exact TO-delivery sequence.
	time.Sleep(300 * time.Millisecond)
	s0, s1 := g.recs[0].toSeq(), g.recs[1].toSeq()
	if !reflect.DeepEqual(s0, s1) {
		t.Fatalf("survivors diverge:\nnode0 (%d): %v\nnode1 (%d): %v", len(s0), s0, len(s1), s1)
	}
	// No duplicates.
	seen := make(map[string]bool, len(s0))
	for _, m := range s0 {
		if seen[m] {
			t.Fatalf("duplicate TO delivery of %s", m)
		}
		seen[m] = true
	}
}

func TestMinorityPartitionEjects(t *testing.T) {
	g := newTestGroup(t, 5, memnet.Config{Latency: time.Millisecond})

	g.net.Partition([]transport.ID{0, 1}, []transport.ID{2, 3, 4})

	// Majority side installs a 3-member view.
	for _, i := range []int{2, 3, 4} {
		rec := g.recs[i]
		waitFor(t, 5*time.Second, "majority view", func() bool {
			v, ok := rec.lastView()
			return ok && len(v.Members) == 3
		})
	}
	// Minority side ejects.
	for _, i := range []int{0, 1} {
		rec := g.recs[i]
		waitFor(t, 5*time.Second, "minority ejection", func() bool {
			rec.mu.Lock()
			defer rec.mu.Unlock()
			return rec.ejected > 0
		})
		if g.eps[i].InPrimary() {
			t.Fatalf("node %d still thinks it is primary", i)
		}
	}
	// Ejected nodes cannot broadcast.
	if err := g.eps[0].URBroadcast("nope"); err != ErrNotPrimary {
		t.Fatalf("broadcast from ejected node = %v, want ErrNotPrimary", err)
	}
}

func TestJoinerReceivesStateTransfer(t *testing.T) {
	net := memnet.New(memnet.Config{Latency: time.Millisecond})
	defer net.Close()
	ids := []transport.ID{0, 1, 2}

	var eps []*Endpoint
	var recs []*recorder
	// Start only nodes 0 and 1... but the initial view includes all three,
	// so node 2 will first be suspected and removed, then join.
	for i := 0; i < 2; i++ {
		tr, err := net.Endpoint(transport.ID(i))
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{}
		ep, err := NewEndpoint(tr, rec, testConfig(ids))
		if err != nil {
			t.Fatal(err)
		}
		ep.Start()
		eps = append(eps, ep)
		recs = append(recs, rec)
	}
	defer func() {
		for _, ep := range eps {
			_ = ep.Close()
		}
	}()

	// Wait for the 2-member view (node 2 suspected).
	waitFor(t, 5*time.Second, "2-member view", func() bool {
		v, ok := recs[0].lastView()
		return ok && len(v.Members) == 2
	})

	// Now start node 2 as a joiner.
	tr2, err := net.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	rec2 := &recorder{}
	cfg := testConfig(ids)
	cfg.Joining = true
	ep2, err := NewEndpoint(tr2, rec2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ep2.Start()
	defer ep2.Close()

	waitFor(t, 10*time.Second, "joiner state transfer", func() bool {
		rec2.mu.Lock()
		defer rec2.mu.Unlock()
		return rec2.state != nil
	})
	waitFor(t, 5*time.Second, "3-member view everywhere", func() bool {
		v0, ok0 := recs[0].lastView()
		v2, ok2 := rec2.lastView()
		return ok0 && ok2 && len(v0.Members) == 3 && v0.ID == v2.ID
	})
	// The state the coordinator cut for this joiner in the view that
	// admitted it, installed before that view.
	rec2.mu.Lock()
	first, installs := rec2.views[0], rec2.installs[:2]
	rec2.mu.Unlock()
	want := stateFor(first.ID, 2, nil)
	if !reflect.DeepEqual(installs, []string{"install " + want, fmt.Sprintf("view %d", first.ID)}) {
		t.Fatalf("joiner upcalls %v, want %q installed before view %d", installs, want, first.ID)
	}

	// The joiner participates in broadcasts.
	if err := ep2.URBroadcast("from-joiner"); err != nil {
		t.Fatalf("URBroadcast from joiner: %v", err)
	}
	waitFor(t, 2*time.Second, "delivery from joiner", func() bool {
		return len(recs[0].urSeq()) >= 1 && recs[0].urSeq()[len(recs[0].urSeq())-1] == "from-joiner"
	})
}

func TestBroadcastAfterClose(t *testing.T) {
	g := newTestGroup(t, 2, memnet.Config{})
	_ = g.eps[0].Close()
	if err := g.eps[0].URBroadcast("x"); err != ErrStopped {
		t.Fatalf("URBroadcast after close = %v, want ErrStopped", err)
	}
}

func TestSingleNodeGroup(t *testing.T) {
	g := newTestGroup(t, 1, memnet.Config{})
	if err := g.eps[0].URBroadcast("solo"); err != nil {
		t.Fatalf("URBroadcast: %v", err)
	}
	if err := g.eps[0].OABroadcast("solo-oab"); err != nil {
		t.Fatalf("OABroadcast: %v", err)
	}
	rec := g.recs[0]
	waitFor(t, 2*time.Second, "solo deliveries", func() bool {
		return len(rec.urSeq()) == 1 && len(rec.toSeq()) == 1
	})
}

func TestOrderIntervalPacesSequencer(t *testing.T) {
	// With a 20ms ordering interval, 10 atomic broadcasts cannot all
	// TO-deliver much faster than ~120ms (burst of 4 + 6 paced).
	net := memnet.New(memnet.Config{})
	defer net.Close()
	ids := []transport.ID{0, 1}
	var eps []*Endpoint
	var recs []*recorder
	for _, id := range ids {
		tr, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{}
		cfg := testConfig(ids)
		cfg.OrderInterval = 20 * time.Millisecond
		ep, err := NewEndpoint(tr, rec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ep.Start()
		eps = append(eps, ep)
		recs = append(recs, rec)
	}
	defer func() {
		for _, ep := range eps {
			_ = ep.Close()
		}
	}()

	start := time.Now()
	const count = 10
	for i := 0; i < count; i++ {
		if err := eps[1].OABroadcast(fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "paced TO deliveries", func() bool {
		return len(recs[0].toSeq()) == count
	})
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("10 ordered messages at 20ms interval delivered in %v, want >= ~100ms", elapsed)
	}
	// URB traffic is NOT paced.
	urStart := time.Now()
	for i := 0; i < count; i++ {
		if err := eps[1].URBroadcast(i); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "UR deliveries", func() bool {
		return len(recs[0].urSeq()) == count
	})
	if elapsed := time.Since(urStart); elapsed > 2*time.Second {
		t.Fatalf("URB took %v despite pacing being AB-only", elapsed)
	}
}

func TestRetransmissionRecoversTransientLoss(t *testing.T) {
	// A short partition (well under the suspicion threshold) makes node 0
	// miss a broadcast; the sender's retransmission must repair it without
	// any membership change.
	g := newTestGroup(t, 3, memnet.Config{Latency: time.Millisecond})

	g.net.Partition([]transport.ID{0}, []transport.ID{1, 2})
	if err := g.eps[1].URBroadcast("lost-then-found"); err != nil {
		t.Fatalf("URBroadcast: %v", err)
	}
	// The majority side delivers despite the partition (quorum 2 of 3).
	for _, i := range []int{1, 2} {
		rec := g.recs[i]
		waitFor(t, 2*time.Second, "majority delivery", func() bool { return len(rec.urSeq()) == 1 })
	}
	// Heal before anyone is suspected.
	time.Sleep(30 * time.Millisecond)
	g.net.Heal()

	rec := g.recs[0]
	waitFor(t, 5*time.Second, "retransmission to node 0", func() bool {
		return len(rec.urSeq()) == 1 && rec.urSeq()[0] == "lost-then-found"
	})
	// No view change happened: the initial view is still installed.
	if v := g.eps[0].CurrentView(); v.ID != 1 || len(v.Members) != 3 {
		t.Fatalf("unexpected view change: %v", v)
	}
}

func TestEjectedEndpointServesCurrentViewInfo(t *testing.T) {
	g := newTestGroup(t, 3, memnet.Config{Latency: time.Millisecond})
	g.net.Partition([]transport.ID{2}, []transport.ID{0, 1})
	rec := g.recs[2]
	waitFor(t, 5*time.Second, "minority ejection", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.ejected > 0
	})
	if g.eps[2].InPrimary() {
		t.Fatal("ejected endpoint claims primary")
	}
}
