package gcs

import (
	"fmt"
	"math/rand"
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
// ack frames, duplicated and delayed frames, a crash and the victim's restart, a minority
// partition and its heal, and a stray process outside the view relaying
// copies of data frames — with every member broadcasting a mix of URB and OAB
// messages, and checks the recorded history:
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

// propBody is an application message, unique per (Sender, N).
type propBody struct {
	Sender transport.ID
	N      int
}

// urbSpec collects one schedule's history and checks it.
type urbSpec struct {
	mu         sync.Mutex
	holders    map[heldKey]map[transport.ID]bool // every process that staged a message
	logs       []*procLog
	violations []string
	// relay, if set, may hand a staged message to the stray relayer.
	relay func(from transport.ID, d *urbData)
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
		switch ev {
		case urbStaged:
			// A holder carries the message into the next view change: it
			// staged it before its flush report, or it is the sender (whose
			// own message absent from every report is resubmitted).
			if !ep.blocked || d.ID.Sender == l.id {
				if s.holders[k] == nil {
					s.holders[k] = make(map[transport.ID]bool)
				}
				s.holders[k][l.id] = true
			}
			if s.relay != nil && d.ID.Sender == l.id {
				s.relay(l.id, d)
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

func (l *procLog) OnOptDeliver(transport.ID, any)    {}
func (l *procLog) OnTODeliver(_ transport.ID, b any) { l.app(b, true) }
func (l *procLog) OnURDeliver(_ transport.ID, b any) { l.app(b, false) }
func (l *procLog) StateSnapshot() any                { return "state" }

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
	defer net.Close()
	drop := []float64{0, 0.01, 0.03}[rng.Intn(3)]
	var calm atomic.Bool // set: the lossy transports stop dropping

	spec := &urbSpec{holders: make(map[heldKey]map[transport.ID]bool)}
	ids := make([]transport.ID, n)
	for i := range ids {
		ids[i] = transport.ID(i)
	}
	// The stray relayer is a process outside the view that sends a member a
	// copy of a data frame as its sender broadcasts it, as a member's relay
	// would.
	stray, err := net.Endpoint(99)
	if err != nil {
		t.Fatal(err)
	}
	relayRNG := rand.New(rand.NewSource(seed))
	spec.relay = func(from transport.ID, d *urbData) {
		if relayRNG.Float64() < 0.1 {
			if to := ids[relayRNG.Intn(n)]; to != from {
				_ = stray.Send(to, d)
			}
		}
	}

	cfg := Config{
		Members:           ids,
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      100 * time.Millisecond,
		FlushTimeout:      250 * time.Millisecond,
		RetransmitAfter:   30 * time.Millisecond,
		Tick:              3 * time.Millisecond,
		AutoRejoin:        true,
	}
	var (
		epsMu sync.Mutex
		eps   = make([]*Endpoint, n)
		all   []*Endpoint
	)
	start := func(id transport.ID, joining bool) {
		tr, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		l := spec.newProc(id)
		c := cfg
		c.Joining = joining
		lossy := &lossyURB{Transport: tr, rng: rand.New(rand.NewSource(seed + int64(id))), drop: drop, calm: &calm}
		ep, err := NewEndpoint(lossy, l, c)
		if err != nil {
			t.Fatal(err)
		}
		ep.urbHook = spec.hook(l, ep)
		ep.Start()
		epsMu.Lock()
		eps[id] = ep
		all = append(all, ep)
		epsMu.Unlock()
	}
	defer func() {
		for _, ep := range all {
			_ = ep.Close()
		}
	}()
	for _, id := range ids {
		start(id, false)
	}
	endpoint := func(id transport.ID) *Endpoint {
		epsMu.Lock()
		defer epsMu.Unlock()
		return eps[id]
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id transport.ID) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed*31 + int64(id)))
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				ep, body := endpoint(id), propBody{Sender: id, N: k}
				if r.Intn(2) == 0 {
					_ = ep.URBroadcast(body)
				} else {
					_ = ep.OABroadcast(body)
				}
				time.Sleep(time.Duration(200+r.Intn(1500)) * time.Microsecond)
			}
		}(id)
	}
	pause := func() { time.Sleep(time.Duration(30+rng.Intn(50)) * time.Millisecond) }
	// settled waits until every listed member is primary in one view with
	// exactly the listed membership.
	settled := func(what string, members []transport.ID) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			ok := true
			var first View
			for i, id := range members {
				ep := endpoint(id)
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
		for _, id := range ids {
			ep := endpoint(id)
			ep.mu.Lock()
			state = append(state, fmt.Sprintf("%d: %v primary=%t joining=%t blocked=%t answered=%d proposing=%t",
				id, ep.view, ep.inPrimary, ep.joining, ep.blocked, ep.answeredProposal, ep.prop != nil))
			ep.mu.Unlock()
		}
		t.Fatalf("%s: members %v never settled in one view:\n%s", what, members, strings.Join(state, "\n"))
	}
	without := func(out ...transport.ID) []transport.ID {
		var rest []transport.ID
		for _, id := range ids {
			if !containsID(out, id) {
				rest = append(rest, id)
			}
		}
		return rest
	}

	pause()
	victim := ids[rng.Intn(n)]
	net.Crash(victim)
	settled("after the crash", without(victim))
	start(victim, true)
	settled("after the restart", ids)

	pause()
	var minority []transport.ID
	for _, i := range rng.Perm(n)[:1+rng.Intn((n-1)/2)] {
		minority = append(minority, ids[i])
	}
	net.Partition(minority, without(minority...))
	settled("after the partition", without(minority...))
	pause()
	net.Heal()
	settled("after the heal", ids)

	pause()
	close(stop)
	wg.Wait()
	net.SetFaults(memnet.Faults{})
	calm.Store(true)
	quiet := waitQuiet(endpoint, ids)
	settled("at the end", ids)
	for _, ep := range all {
		_ = ep.Close()
	}
	spec.mu.Lock()
	defer spec.mu.Unlock()
	if quiet != "" {
		spec.violatef("%s", quiet)
	}
	spec.check(quiet == "")
	for _, v := range spec.violations {
		t.Error(v)
	}
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
	for _, pm := range vs.pending {
		// A pending message waits for a predecessor nobody retransmits once
		// every member is thought to hold it.
		d := pm.data
		need := msgID{Sender: d.ID.Sender, Seq: vs.delivered[d.ID.Sender] + 1}
		for p, c := range d.VC {
			if p != d.ID.Sender && vs.delivered[p] < c {
				need = msgID{Sender: p, Seq: vs.delivered[p] + 1}
			}
		}
		return fmt.Sprintf("agreement: process %d never delivers %v, waiting for %v", id, d.ID, need)
	}
	if len(ep.outbox)+len(vs.seqQueue) > 0 {
		return fmt.Sprintf("process %d never drains its outbox", id)
	}
	for mid := range vs.retained {
		if mid.Sender == id {
			return fmt.Sprintf("stability: process %d never learns that every member holds %v", id, mid)
		}
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
			for p, need := range d.VC {
				if p != d.ID.Sender && c[p] < need {
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
