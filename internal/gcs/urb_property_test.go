package gcs

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/transport"
)

// TestURBPropertiesOnRandomSchedules is an executable specification of the
// view-synchronous URB and OAB this package provides. It runs real Endpoints
// over memnet on randomized schedules — latency and jitter, dropped data and
// ack frames, duplicated and delayed frames, a crash and the victim's
// restart, a minority partition and its heal, and a stray process outside
// the view relaying copies of data frames and forging acknowledgements — with
// every member broadcasting a mix of URB and OAB messages and answering some
// of its peers' Opt-delivered OAB messages with a URB broadcast from the
// upcall (as a lease holder answers a request with a release, so that at the
// sequencer the answer carries the request's order slot), and checks the
// recorded history:
//
//   - at most one delivery per message per process, and each message is
//     delivered in one view only;
//   - per-sender FIFO and causal order, against each message's vector clock;
//   - one total order for OAB;
//   - in every view, the members that install the next view from it have
//     delivered the same set of messages in it, and the members of the final
//     view agree on its messages once the run is quiet;
//   - at each UR-delivery, a quorum of the view holds the message (read
//     through urbHook, under the delivering endpoint's lock).
//
// Each subtest name carries the seed that fixes its schedule's parameters;
// goroutine interleavings are not replayable.
func TestURBPropertiesOnRandomSchedules(t *testing.T) {
	seeds := int64(4)
	if testing.Short() {
		seeds = 2
	}
	for _, n := range []int{3, 5} {
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("n%d/seed%d", n, seed), func(t *testing.T) { runURBSchedule(t, n, seed) })
		}
	}
}

// TestURBLivenessWithDesignatedReceiverDown runs the same checks on a
// loss-free schedule in a view of three — two broadcasters and a follower
// that never broadcasts, as in the benchmark — in which the designated
// receiver of one sender crashes and restarts as a joiner, or is cut off from
// the other two until the partition heals, and adds a liveness check:
//
//   - in a view whose members are all correct, every broadcast is
//     UR-delivered at its sender within 2 ticks;
//   - while the designated receiver is down but still in the view, once it
//     has been silent for longer than HeartbeatInterval, its sender's
//     broadcasts no longer wait for the other receiver's tick: their median
//     UR-delivery latency is under a quarter of a tick. Without the quiet
//     fallback a deferred acknowledgement still leaves within a tick, so only
//     this clause sees the fallback go.
func TestURBLivenessWithDesignatedReceiverDown(t *testing.T) {
	for _, isolate := range []bool{false, true} {
		for seed := int64(1); seed <= 2; seed++ {
			name := fmt.Sprintf("crash/seed%d", seed)
			if isolate {
				name = fmt.Sprintf("isolate/seed%d", seed)
			}
			t.Run(name, func(t *testing.T) { runDesignatedDown(t, seed, isolate) })
		}
	}
}

// propBody is an application message, unique per (Sender, N).
type propBody struct {
	Sender transport.ID
	N      int
}

// urbSpec collects one schedule's history and checks it.
type urbSpec struct {
	mu      sync.Mutex
	holders map[heldKey]map[transport.ID]bool // every process that staged a message
	members map[uint64][]transport.ID         // each view's membership
	rounds  map[heldKey]*round                // every broadcast, at its sender
	logs    []*procLog
	// relay, if set, may hand a message its sender just staged to the stray.
	relay func(from transport.ID, d *urbData, members []transport.ID)
	// echo makes processes answer Opt-deliveries (procLog.OnOptDeliver);
	// echoes counts each process's answers, across its incarnations, and
	// rode the answers whose frame carried order slots.
	echo       bool
	echoes     map[transport.ID]int
	rode       int
	violations []string
}

// round is one broadcast's URB round at its sender: from staging to
// UR-delivery.
type round struct {
	at   time.Time
	took time.Duration // -1: never UR-delivered at its sender
}

type heldKey struct {
	view uint64
	id   msgID
}

func (s *urbSpec) violatef(format string, args ...any) {
	if len(s.violations) < 20 {
		s.violations = append(s.violations, fmt.Sprintf(format, args...))
	}
}

// procLog is one process incarnation's history: its UR-deliveries of every
// kind in order (from urbHook) and its application upcalls per installed
// view. It is the incarnation's Handler.
type procLog struct {
	spec *urbSpec
	id   transport.ID
	ep   *Endpoint // set before the endpoint starts
	urb  []*urbData
	// epochs has one entry per installed view.
	epochs            []*epoch
	transfer, ejected bool // since the last view change
}

type epoch struct {
	view View
	// next is the view this process installed next from this one through
	// the flush (0: it did not — crash, ejection, state transfer, end).
	next      uint64
	delivered []appDelivery
}

type appDelivery struct {
	body propBody
	to   bool // TO-delivery (else UR-delivery)
}

func (s *urbSpec) newProc(id transport.ID) *procLog {
	l := &procLog{spec: s, id: id}
	s.mu.Lock()
	s.logs = append(s.logs, l)
	s.mu.Unlock()
	return l
}

// hook is ep's urbHook; it runs under ep.mu.
func (s *urbSpec) hook(l *procLog, ep *Endpoint) func(*urbData, urbEvent) {
	return func(d *urbData, ev urbEvent) {
		s.mu.Lock()
		defer s.mu.Unlock()
		k := heldKey{d.View, d.ID}
		own := d.ID.Sender == l.id
		if s.members[d.View] == nil {
			s.members[d.View] = ep.view.Members
		}
		switch ev {
		case urbStaged:
			// A holder carries the message into the next view change: it
			// staged it before its flush report, or it is the sender (whose
			// own message absent from every report is resubmitted).
			if !ep.blocked || own {
				if s.holders[k] == nil {
					s.holders[k] = make(map[transport.ID]bool)
				}
				s.holders[k][l.id] = true
			}
			if own {
				if b, ok := d.Body.(propBody); ok && b.N < 0 && len(d.Orders) > 0 {
					s.rode++
				}
				s.rounds[k] = &round{at: time.Now(), took: -1}
				if s.relay != nil {
					s.relay(l.id, d, ep.view.Members)
				}
			}
			return
		case urbDelivered:
			held := 0
			for _, m := range ep.view.Members {
				if s.holders[k][m] {
					held++
				}
			}
			if held < ep.view.Quorum() {
				s.violatef("process %d UR-delivered %v in %v while %d members held it, quorum %d",
					l.id, d.ID, ep.view, held, ep.view.Quorum())
			}
			if r := s.rounds[k]; own && r != nil {
				r.took = time.Since(r.at)
			}
		}
		l.urb = append(l.urb, d)
	}
}

func (l *procLog) app(body any, to bool) {
	l.spec.mu.Lock()
	defer l.spec.mu.Unlock()
	b, ok := body.(propBody)
	if !ok {
		l.spec.violatef("process %d delivered a foreign body %#v", l.id, body)
		return
	}
	if len(l.epochs) == 0 {
		l.spec.violatef("process %d delivered %v before installing a view", l.id, b)
		return
	}
	e := l.epochs[len(l.epochs)-1]
	e.delivered = append(e.delivered, appDelivery{body: b, to: to})
}

// OnOptDeliver answers every other OAB message of a peer with a URB
// broadcast from the upcall, when the schedule asks for echoes. The answers
// are numbered below zero, apart from the broadcasters' messages.
func (l *procLog) OnOptDeliver(from transport.ID, body any) {
	b, ok := body.(propBody)
	if !l.spec.echo || !ok || from == l.id || b.N%2 != 0 {
		return
	}
	l.spec.mu.Lock()
	l.spec.echoes[l.id]++
	n := -l.spec.echoes[l.id]
	l.spec.mu.Unlock()
	_ = l.ep.URBroadcast(propBody{Sender: l.id, N: n})
}

func (l *procLog) OnTODeliver(_ transport.ID, b any) { l.app(b, true) }
func (l *procLog) OnURDeliver(_ transport.ID, b any) { l.app(b, false) }

func (l *procLog) OnViewChange(v View) {
	l.spec.mu.Lock()
	defer l.spec.mu.Unlock()
	if n := len(l.epochs); n > 0 && !l.transfer && !l.ejected {
		l.epochs[n-1].next = v.ID
	}
	l.epochs = append(l.epochs, &epoch{view: v})
	l.transfer, l.ejected = false, false
}

func (l *procLog) OnEjected() {
	l.spec.mu.Lock()
	l.ejected = true
	l.spec.mu.Unlock()
}

func (l *procLog) JoinFrontier() map[transport.ID]uint64 { return nil }

func (l *procLog) StatesFor(_ uint64, joiners map[transport.ID]map[transport.ID]uint64) map[transport.ID]any {
	out := make(map[transport.ID]any, len(joiners))
	for j := range joiners {
		out[j] = "state"
	}
	return out
}

func (l *procLog) InstallState(any) {
	l.spec.mu.Lock()
	l.transfer = true
	l.spec.mu.Unlock()
}

// lossyURB drops broadcast data and acknowledgement frames to other
// processes with probability drop. Membership traffic is not dropped: this
// test checks the broadcast, and the view-change protocol does not retransmit
// a lost prepare or flush report (a lost one ejects the proposer).
type lossyURB struct {
	transport.Transport
	mu   sync.Mutex
	rng  *rand.Rand
	drop float64
	calm *atomic.Bool
}

func (l *lossyURB) Send(to transport.ID, payload any) error {
	switch payload.(type) {
	case *urbData, *urbAck:
		l.mu.Lock()
		lost := to != l.Self() && !l.calm.Load() && l.rng.Float64() < l.drop
		l.mu.Unlock()
		if lost {
			return nil
		}
	}
	return l.Transport.Send(to, payload)
}

// urbRun is one schedule's cluster: real Endpoints over memnet behind lossy
// transports, the broadcasters started by broadcast, and the stray.
type urbRun struct {
	t    *testing.T
	spec *urbSpec
	net  *memnet.Network
	cfg  Config
	ids  []transport.ID
	seed int64
	drop float64
	calm atomic.Bool // set: the lossy transports stop dropping

	mu  sync.Mutex
	eps []*Endpoint // each member's current incarnation
	all []*Endpoint

	stop chan struct{}
	wg   sync.WaitGroup
}

// newURBRun starts n members with cfg (Members filled in), answering
// Opt-deliveries if echo. The stray is a process outside the view: as a
// sender stages a message, it may send a member a copy of the frame, as a
// member's relay would, and may send the sender an acknowledgement claiming
// to hold the message.
func newURBRun(t *testing.T, n int, seed int64, net *memnet.Network, cfg Config, drop float64, echo bool) *urbRun {
	r := &urbRun{
		t: t,
		spec: &urbSpec{holders: make(map[heldKey]map[transport.ID]bool), members: make(map[uint64][]transport.ID),
			rounds: make(map[heldKey]*round), echo: echo, echoes: make(map[transport.ID]int)},
		net:  net,
		cfg:  cfg,
		ids:  make([]transport.ID, n),
		seed: seed,
		drop: drop,
		eps:  make([]*Endpoint, n),
		stop: make(chan struct{}),
	}
	t.Cleanup(net.Close)
	t.Cleanup(func() {
		for _, ep := range r.all {
			_ = ep.Close()
		}
	})
	for i := range r.ids {
		r.ids[i] = transport.ID(i)
	}
	r.cfg.Members = r.ids
	stray, err := net.Endpoint(99)
	if err != nil {
		t.Fatal(err)
	}
	relayRNG := rand.New(rand.NewSource(seed))
	r.spec.relay = func(from transport.ID, d *urbData, members []transport.ID) {
		if relayRNG.Float64() < 0.1 {
			if to := r.ids[relayRNG.Intn(n)]; to != from {
				_ = stray.Send(to, d)
			}
		}
		if relayRNG.Float64() < 0.1 {
			held := make([]uint64, len(members))
			held[slices.Index(members, from)] = d.ID.Seq
			_ = stray.Send(from, &urbAck{View: d.View, From: stray.Self(), Held: held})
		}
	}
	for _, id := range r.ids {
		r.start(id, false)
	}
	return r
}

func (r *urbRun) start(id transport.ID, joining bool) {
	tr, err := r.net.Endpoint(id)
	if err != nil {
		r.t.Fatal(err)
	}
	l := r.spec.newProc(id)
	c := r.cfg
	c.Joining = joining
	lossy := &lossyURB{Transport: tr, rng: rand.New(rand.NewSource(r.seed + int64(id))), drop: r.drop, calm: &r.calm}
	ep, err := NewEndpoint(lossy, l, c)
	if err != nil {
		r.t.Fatal(err)
	}
	ep.urbHook = r.spec.hook(l, ep)
	l.ep = ep
	ep.Start()
	r.mu.Lock()
	r.eps[id] = ep
	r.all = append(r.all, ep)
	r.mu.Unlock()
}

func (r *urbRun) endpoint(id transport.ID) *Endpoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eps[id]
}

// broadcast makes each of ids broadcast until finish: an OAB message with
// probability oab, else a URB one.
func (r *urbRun) broadcast(oab float64, ids ...transport.ID) {
	for _, id := range ids {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			rng := rand.New(rand.NewSource(r.seed*31 + int64(id)))
			for k := 0; ; k++ {
				select {
				case <-r.stop:
					return
				default:
				}
				ep, body := r.endpoint(id), propBody{Sender: id, N: k}
				if rng.Float64() < oab {
					_ = ep.OABroadcast(body)
				} else {
					_ = ep.URBroadcast(body)
				}
				time.Sleep(time.Duration(200+rng.Intn(1500)) * time.Microsecond)
			}
		}()
	}
}

// settled waits until every listed member is primary in one view with
// exactly the listed membership.
func (r *urbRun) settled(what string, members []transport.ID) {
	r.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		var first View
		for i, id := range members {
			ep := r.endpoint(id)
			v := ep.CurrentView()
			if i == 0 {
				first = v
			}
			if !ep.InPrimary() || v.ID != first.ID || len(v.Members) != len(members) {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	var state []string
	for _, id := range r.ids {
		ep := r.endpoint(id)
		ep.mu.Lock()
		state = append(state, fmt.Sprintf("%d: %v primary=%t joining=%t blocked=%t answered=%d proposing=%t",
			id, ep.view, ep.inPrimary, ep.joining, ep.blocked, ep.answeredProposal, ep.prop != nil))
		ep.mu.Unlock()
	}
	r.t.Fatalf("%s: members %v never settled in one view:\n%s", what, members, strings.Join(state, "\n"))
}

func (r *urbRun) without(out ...transport.ID) []transport.ID {
	var rest []transport.ID
	for _, id := range r.ids {
		if !slices.Contains(out, id) {
			rest = append(rest, id)
		}
	}
	return rest
}

// finish stops the broadcasters and the faults, waits for quiet, closes every
// endpoint and checks the history; check, if set, adds checks under the
// spec's lock.
func (r *urbRun) finish(check func()) {
	close(r.stop)
	r.wg.Wait()
	r.net.SetFaults(memnet.Faults{})
	r.calm.Store(true)
	quiet := waitQuiet(r.endpoint, r.ids)
	r.settled("at the end", r.ids)
	for _, ep := range r.all {
		_ = ep.Close()
	}
	s := r.spec
	s.mu.Lock()
	defer s.mu.Unlock()
	if quiet != "" {
		s.violatef("%s", quiet)
	}
	s.check(quiet == "")
	if check != nil {
		check()
	}
	for _, v := range s.violations {
		r.t.Error(v)
	}
}

// runURBSchedule drives one randomized schedule over n members and checks
// its history.
func runURBSchedule(t *testing.T, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(n)))
	net := memnet.New(memnet.Config{
		Latency: time.Duration(100+rng.Intn(900)) * time.Microsecond,
		Jitter:  time.Duration(rng.Intn(1000)) * time.Microsecond,
		Seed:    seed,
		Faults: memnet.Faults{
			Seed:       seed,
			Duplicate:  0.01,
			Delay:      0.01,
			DelaySpike: 3 * time.Millisecond,
		},
	})
	drop := []float64{0, 0.01, 0.03}[rng.Intn(3)]
	r := newURBRun(t, n, seed, net, Config{
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      100 * time.Millisecond,
		FlushTimeout:      250 * time.Millisecond,
		RetransmitAfter:   30 * time.Millisecond,
		Tick:              3 * time.Millisecond,
	}, drop, true)
	r.broadcast(0.5, r.ids...)
	pause := func() { time.Sleep(time.Duration(30+rng.Intn(50)) * time.Millisecond) }

	pause()
	victim := r.ids[rng.Intn(n)]
	net.Crash(victim)
	r.settled("after the crash", r.without(victim))
	r.start(victim, true)
	r.settled("after the restart", r.ids)

	pause()
	var minority []transport.ID
	for _, i := range rng.Perm(n)[:1+rng.Intn((n-1)/2)] {
		minority = append(minority, r.ids[i])
	}
	net.Partition(minority, r.without(minority...))
	r.settled("after the partition", r.without(minority...))
	pause()
	net.Heal()
	r.settled("after the heal", r.ids)

	pause()
	r.finish(func() {
		if r.spec.rode == 0 {
			r.spec.violatef("no order slot rode an answer to an Opt-delivery")
		}
	})
}

// runDesignatedDown drives the designated-receiver schedule: three members,
// no loss; the member after one sender crashes (isolate: is partitioned from
// the other two) and comes back.
func runDesignatedDown(t *testing.T, seed int64, isolate bool) {
	const n = 3
	rng := rand.New(rand.NewSource(seed * 104729))
	net := memnet.New(memnet.Config{Latency: time.Duration(100+rng.Intn(200)) * time.Microsecond, Seed: seed})
	cfg := Config{
		HeartbeatInterval: 80 * time.Millisecond,
		SuspectAfter:      400 * time.Millisecond,
		FlushTimeout:      800 * time.Millisecond,
		RetransmitAfter:   320 * time.Millisecond,
		Tick:              20 * time.Millisecond,
	}
	r := newURBRun(t, n, seed, net, cfg, 0, false)
	down := r.ids[rng.Intn(n)]
	sender := r.ids[(int(down)+n-1)%n] // down is the member after sender
	// The third member is a follower: it never broadcasts, so no data frame of
	// its carries the acknowledgement sender needs while down is down (nor
	// does an order-only frame, sender broadcasting URB only).
	r.broadcast(0.5, down)
	r.broadcast(0, sender)

	// window is a stretch of one view: the broadcasts staged in it, by sender
	// (Nobody: by anyone), are checked.
	type window struct {
		view     uint64
		sender   transport.ID
		from, to time.Time
	}
	var healthy []window
	from := time.Now()
	time.Sleep(150 * time.Millisecond)
	healthy = append(healthy, window{1, transport.Nobody, from, time.Now().Add(-2 * cfg.Tick)})
	if isolate {
		net.Partition([]transport.ID{down}, r.without(down))
	} else {
		net.Crash(down)
	}
	downAt := time.Now()
	fallback := window{1, sender, downAt.Add(cfg.HeartbeatInterval + 2*cfg.Tick), downAt.Add(cfg.SuspectAfter - 2*cfg.Tick)}
	r.settled("with the designated receiver down", r.without(down))
	if isolate {
		net.Heal()
	} else {
		r.start(down, true)
	}
	r.settled("after it is back", r.ids)
	from = time.Now()
	time.Sleep(150 * time.Millisecond)
	healthy = append(healthy, window{r.endpoint(sender).CurrentView().ID, transport.Nobody, from, time.Now()})

	r.finish(func() {
		s := r.spec
		in := func(w window, k heldKey, rd *round) bool {
			return k.view == w.view && (w.sender == transport.Nobody || k.id.Sender == w.sender) &&
				!rd.at.Before(w.from) && rd.at.Before(w.to)
		}
		var during []time.Duration
		for k, rd := range s.rounds {
			for _, w := range healthy {
				if in(w, k, rd) && (rd.took < 0 || rd.took > 2*cfg.Tick) {
					s.violatef("liveness: %v, broadcast in view %d with every member correct, took %v at its sender (never: -1), over 2 ticks",
						k.id, k.view, rd.took)
				}
			}
			if in(fallback, k, rd) {
				took := rd.took
				if took < 0 {
					took = time.Hour
				}
				during = append(during, took)
			}
		}
		slices.Sort(during)
		switch {
		case len(during) < 10:
			s.violatef("liveness: only %d broadcasts from %d while %d was down", len(during), sender, down)
		case during[len(during)/2] > cfg.Tick/4:
			s.violatef("liveness: with %d's designated receiver %d down, its median URB round over %d broadcasts is %v, over a quarter tick",
				sender, down, len(during), during[len(during)/2])
		}
	})
}

// waitQuiet waits until nothing is queued or pending anywhere and every
// sender's own messages are stable, so every member holds them (others'
// messages may stay retained where a deferred acknowledgement was dropped).
// It returns "" once the cluster is quiet, or what keeps it busy.
func waitQuiet(endpoint func(transport.ID) *Endpoint, ids []transport.ID) string {
	busy := func() string {
		for _, id := range ids {
			if why := busyAt(endpoint(id), id); why != "" {
				return why
			}
		}
		return ""
	}
	for _, settle := range []time.Duration{0, 50 * time.Millisecond} {
		time.Sleep(settle)
		deadline := time.Now().Add(3 * time.Second)
		for busy() != "" && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
	}
	return busy()
}

func busyAt(ep *Endpoint, id transport.ID) string {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	vs := ep.vs
	for s, q := range vs.pending {
		if len(q) == 0 {
			continue
		}
		// A pending message waits for a predecessor nobody retransmits once
		// every member is thought to hold it.
		d := q[0].data
		need := msgID{Sender: d.ID.Sender, Seq: vs.delivered[s] + 1}
		for p, c := range d.VC {
			if p != s && vs.delivered[p] < c {
				need = msgID{Sender: vs.view.Members[p], Seq: vs.delivered[p] + 1}
			}
		}
		return fmt.Sprintf("agreement: process %d never delivers %v, waiting for %v", id, d.ID, need)
	}
	if len(ep.outbox)+len(vs.seqQueue) > 0 {
		return fmt.Sprintf("process %d never drains its outbox", id)
	}
	if vs.self >= 0 && len(vs.retained[vs.self]) > 0 {
		return fmt.Sprintf("stability: process %d never learns that every member holds %v", id, vs.retained[vs.self][0].data.ID)
	}
	return ""
}

// check runs the offline checks over the recorded history; call it with mu
// held, after every endpoint is closed. quiet asks for the final view's
// agreement check too.
func (s *urbSpec) check(quiet bool) {
	deliveredIn := make(map[propBody]uint64)
	byView := make(map[uint64][]*epoch)
	var final uint64
	for _, l := range s.logs {
		// At most once per process, and in one view only.
		seen := make(map[propBody]bool)
		for _, e := range l.epochs {
			byView[e.view.ID] = append(byView[e.view.ID], e)
			if e.view.ID > final {
				final = e.view.ID
			}
			for _, d := range e.delivered {
				if seen[d.body] {
					s.violatef("process %d delivered %v twice", l.id, d.body)
				}
				seen[d.body] = true
				if v, ok := deliveredIn[d.body]; ok && v != e.view.ID {
					s.violatef("%v delivered in view %d and in view %d", d.body, v, e.view.ID)
				}
				deliveredIn[d.body] = e.view.ID
			}
		}
		// FIFO and causal order of every UR-delivery, per view.
		counts := make(map[uint64]map[transport.ID]uint64)
		for _, d := range l.urb {
			c := counts[d.View]
			if c == nil {
				c = make(map[transport.ID]uint64)
				counts[d.View] = c
			}
			if d.ID.Seq != c[d.ID.Sender]+1 {
				s.violatef("process %d delivered %v in view %d after %d messages from its sender (FIFO)",
					l.id, d.ID, d.View, c[d.ID.Sender])
			}
			for i, need := range d.VC {
				if p := s.members[d.View][i]; p != d.ID.Sender && c[p] < need {
					s.violatef("process %d delivered %v in view %d having delivered %d of the %d messages from %d it depends on",
						l.id, d.ID, d.View, c[p], need, p)
				}
			}
			c[d.ID.Sender] = d.ID.Seq
		}
	}

	for v, epochs := range byView {
		// One total order: every process's TO sequence in a view is a prefix
		// of the longest one.
		var longest []propBody
		seqs := make([][]propBody, len(epochs))
		for i, e := range epochs {
			for _, d := range e.delivered {
				if d.to {
					seqs[i] = append(seqs[i], d.body)
				}
			}
			if len(seqs[i]) > len(longest) {
				longest = seqs[i]
			}
		}
		for _, seq := range seqs {
			for i := range seq {
				if seq[i] != longest[i] {
					s.violatef("view %d: TO-delivery %d is %v at one process and %v at another", v, i, seq[i], longest[i])
					break
				}
			}
		}
		// Virtual synchrony: the members moving to the same next view by the
		// flush delivered the same set in this one; so did every member of
		// the final view by the end.
		groups := make(map[uint64][]*epoch)
		for _, e := range epochs {
			switch {
			case e.next != 0:
				groups[e.next] = append(groups[e.next], e)
			case v == final && quiet:
				groups[0] = append(groups[0], e)
			}
		}
		for next, group := range groups {
			ref := deliverySet(group[0])
			for _, e := range group[1:] {
				if got := deliverySet(e); !sameSet(ref, got) {
					s.violatef("view %d (next %d): members delivered different sets: %d vs %d messages, differing in %v",
						v, next, len(ref), len(got), setDiff(ref, got))
				}
			}
		}
	}
}

func deliverySet(e *epoch) map[appDelivery]bool {
	set := make(map[appDelivery]bool, len(e.delivered))
	for _, d := range e.delivered {
		set[d] = true
	}
	return set
}

func sameSet(a, b map[appDelivery]bool) bool {
	return len(setDiff(a, b)) == 0
}

func setDiff(a, b map[appDelivery]bool) []appDelivery {
	var out []appDelivery
	for d := range a {
		if !b[d] {
			out = append(out, d)
		}
	}
	for d := range b {
		if !a[d] {
			out = append(out, d)
		}
	}
	return out
}
