package obs_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/cluster"
	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/obs"
	"github.com/alcstm/alc/internal/stm"
)

func testGCS() gcs.Config {
	return gcs.Config{
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      120 * time.Millisecond,
		FlushTimeout:      300 * time.Millisecond,
		RetransmitAfter:   60 * time.Millisecond,
		Tick:              5 * time.Millisecond,
	}
}

// newCluster starts a 3-replica ALC cluster and registers every replica in a
// fresh obs registry as r0..r2, served on a real loopback listener.
func newCluster(t *testing.T, latency time.Duration) (*cluster.Cluster, *obs.Server) {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		N:    3,
		Core: core.Config{Protocol: core.ProtocolALC},
		Net:  memnet.Config{Latency: latency},
		GCS:  testGCS(),
		Seed: map[string]stm.Value{"k": 0, "a": 0, "b": 0},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)

	reg := obs.NewRegistry()
	for i := 0; i < c.N(); i++ {
		i := i
		reg.Register(fmt.Sprintf("r%d", i), func() *core.Replica { return c.Replica(i) })
	}
	srv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("obs.Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return c, srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// commitN runs n serial uncontended increments on replica 0.
//
// Under a short SuspectAfter a busy host can get replica 0 suspected, ejected
// and readmitted (on its own join request) mid-test; an increment it had in
// flight then fails with ErrEjected and may or may not have been applied.
// commitN resolves that as internal/cluster's helper does: every increment
// also writes its own number to "k#op", so once the replica is back and the
// group has converged, that box says whether it took effect, and only one
// that did not is retried.
func commitN(t *testing.T, c *cluster.Cluster, n int) {
	t.Helper()
	r := c.Replica(0)
	for i := 0; i < n; i++ {
		op := int(commitOps.Add(1))
		for {
			err := r.Atomic(func(tx *stm.Txn) error {
				v, err := tx.Read("k")
				if err != nil {
					return err
				}
				if err := tx.Write("k", v.(int)+1); err != nil {
					return err
				}
				return tx.Write("k#op", op)
			})
			if err == nil {
				break
			}
			if !errors.Is(err, core.ErrEjected) {
				t.Fatalf("commit %d: %v", i, err)
			}
			for deadline := time.Now().Add(15 * time.Second); !r.InPrimary(); time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("replica 0 never rejoined the primary component")
				}
			}
			if err := c.WaitConverged(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			var last any
			_ = r.AtomicRO(func(tx *stm.Txn) error {
				last, _ = tx.Read("k#op")
				return nil
			})
			t.Logf("commit %d failed with %v; applied: %t", i, err, last == op)
			if last == op {
				break
			}
		}
	}
}

// commitOps numbers commitN's increments.
var commitOps atomic.Int64

// promSample is one parsed exposition sample.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses the Prometheus text format strictly enough to catch
// malformed output: every non-comment line must be `name{labels} value`,
// every sample's family must carry a # TYPE line.
func parseProm(t *testing.T, text string) (map[string]string, []promSample) {
	t.Helper()
	types := make(map[string]string)
	var samples []promSample
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", ln+1, line)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, line[sp+1:], err)
		}
		head := line[:sp]
		name := head
		labels := make(map[string]string)
		if i := strings.IndexByte(head, '{'); i >= 0 {
			if !strings.HasSuffix(head, "}") {
				t.Fatalf("line %d: unterminated labels: %q", ln+1, line)
			}
			name = head[:i]
			for _, kv := range strings.Split(head[i+1:len(head)-1], ",") {
				eq := strings.IndexByte(kv, '=')
				if eq < 0 {
					t.Fatalf("line %d: malformed label %q", ln+1, kv)
				}
				v, err := strconv.Unquote(kv[eq+1:])
				if err != nil {
					t.Fatalf("line %d: bad label value %q: %v", ln+1, kv, err)
				}
				labels[kv[:eq]] = v
			}
		}
		samples = append(samples, promSample{name: name, labels: labels, value: val})
	}
	for _, s := range samples {
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(
			s.name, "_bucket"), "_sum"), "_count")
		if _, ok := types[base]; !ok {
			t.Fatalf("sample %s has no # TYPE for family %s", s.name, base)
		}
	}
	return types, samples
}

// forceEarlyAbort makes one transaction on replica 1 abort with cause
// "early", deterministically: its first execution reads k, then — still
// inside the transaction body — commits an increment of k on replica 0 and
// waits for that write-set to apply on replica 1, so replica 1's first-attempt
// local validation finds the read stale. The re-execution commits.
func forceEarlyAbort(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	readK := func(tx *stm.Txn) (int, error) {
		v, err := tx.Read("k")
		if err != nil {
			return 0, err
		}
		return v.(int), nil
	}
	attempts := 0
	err := c.Replica(1).Atomic(func(tx *stm.Txn) error {
		attempts++
		k, err := readK(tx)
		if err != nil {
			return err
		}
		if attempts == 1 {
			commitN(t, c, 1)
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				var now int
				if err := c.Replica(1).AtomicRO(func(ro *stm.Txn) error {
					now, err = readK(ro)
					return err
				}); err != nil {
					return err
				}
				if now != k {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("replica 0's commit never applied on replica 1")
				}
			}
		}
		return tx.Write("k", k+1)
	})
	if err != nil {
		t.Fatalf("forced-abort transaction: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("forced-abort transaction ran %d times, want 2", attempts)
	}
}

func TestObsEndpointMetrics(t *testing.T) {
	c, srv := newCluster(t, 300*time.Microsecond)
	commitN(t, c, 25)
	forceEarlyAbort(t, c)

	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	types, samples := parseProm(t, body)
	if types["alc_commits_total"] != "counter" ||
		types["alc_queue_depth"] != "gauge" ||
		types["alc_stage_latency_seconds"] != "histogram" ||
		types["alc_commit_latency_seconds"] != "histogram" {
		t.Fatalf("missing or mistyped families: %v", types)
	}
	// The durability families are exposed even for memory-only replicas
	// (counters just stay 0), so dashboards need no conditional scraping.
	if types["alc_wal_records_total"] != "counter" ||
		types["alc_wal_appended_bytes_total"] != "counter" ||
		types["alc_wal_filtered_total"] != "counter" ||
		types["alc_wal_snapshot_age_seconds"] != "gauge" ||
		types["alc_wal_retained_entries"] != "gauge" ||
		types["alc_wal_fsync_latency_seconds"] != "histogram" {
		t.Fatalf("missing or mistyped WAL families: %v", types)
	}

	find := func(name string, labels map[string]string) (promSample, bool) {
		for _, s := range samples {
			if s.name != name {
				continue
			}
			match := true
			for k, v := range labels {
				if s.labels[k] != v {
					match = false
					break
				}
			}
			if match {
				return s, true
			}
		}
		return promSample{}, false
	}

	wantCommits := float64(c.Replica(0).Stats().Commits)
	got, ok := find("alc_commits_total", map[string]string{"replica": "r0"})
	if !ok || got.value != wantCommits {
		t.Fatalf("alc_commits_total{replica=r0} = %v (found %v), want %v", got.value, ok, wantCommits)
	}
	if got.value < 25 {
		t.Fatalf("alc_commits_total{replica=r0} = %v, want >= 25", got.value)
	}

	// Abort causes are per replica: the forced abort shows up on r1 under
	// its cause and nowhere else, and on every replica the causes sum to
	// alc_aborts_total.
	if types["alc_aborts_by_cause_total"] != "counter" {
		t.Fatalf("alc_aborts_by_cause_total missing or mistyped: %v", types)
	}
	for _, r := range []string{"r0", "r1", "r2"} {
		total, ok := find("alc_aborts_total", map[string]string{"replica": r})
		if !ok {
			t.Fatalf("missing alc_aborts_total{replica=%q}", r)
		}
		sum := 0.0
		for _, cause := range []string{"early", "final", "payload", "deadlock"} {
			s, ok := find("alc_aborts_by_cause_total", map[string]string{"replica": r, "cause": cause})
			if !ok {
				t.Fatalf("missing alc_aborts_by_cause_total{replica=%q,cause=%q}", r, cause)
			}
			sum += s.value
			want := 0.0
			if r == "r1" && cause == "early" {
				want = 1
			}
			if s.value != want {
				t.Fatalf("alc_aborts_by_cause_total{replica=%q,cause=%q} = %v, want %v", r, cause, s.value, want)
			}
		}
		if sum != total.value {
			t.Fatalf("replica %s: abort causes sum to %v, alc_aborts_total = %v", r, sum, total.value)
		}
	}

	// Every replica exposes these seven queue-depth gauges.
	queues := []string{"coalescer", "lease_waiters", "gcs_outbox",
		"gcs_urb_pending", "gcs_urb_retained", "gcs_seq_queue", "gcs_dispatch"}
	for _, r := range []string{"r0", "r1", "r2"} {
		for _, q := range queues {
			if _, ok := find("alc_queue_depth", map[string]string{"replica": r, "queue": q}); !ok {
				t.Fatalf("missing alc_queue_depth{replica=%q,queue=%q}", r, q)
			}
		}
	}

	checkHistogram(t, samples, "alc_commit_latency_seconds", "r0", "")
	for _, stage := range []string{"execution", "lease_wait", "certification", "coalescer", "urb", "apply"} {
		checkHistogram(t, samples, "alc_stage_latency_seconds", "r0", stage)
	}
}

// checkHistogram asserts the exposition invariants of one histogram series:
// le values ascending, cumulative bucket counts non-decreasing, the +Inf
// bucket equal to _count, and _sum present (positive whenever count is).
func checkHistogram(t *testing.T, samples []promSample, fam, replica, stage string) {
	t.Helper()
	match := func(s promSample) bool {
		return s.labels["replica"] == replica && (stage == "" || s.labels["stage"] == stage)
	}
	var (
		les   []float64
		cums  []float64
		count = math.NaN()
		sum   = math.NaN()
	)
	for _, s := range samples {
		if !match(s) {
			continue
		}
		switch s.name {
		case fam + "_bucket":
			le := s.labels["le"]
			v := math.Inf(1)
			if le != "+Inf" {
				var err error
				v, err = strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("%s: bad le %q", fam, le)
				}
			}
			les = append(les, v)
			cums = append(cums, s.value)
		case fam + "_sum":
			sum = s.value
		case fam + "_count":
			count = s.value
		}
	}
	id := fmt.Sprintf("%s{replica=%q,stage=%q}", fam, replica, stage)
	if len(les) == 0 || math.IsNaN(count) || math.IsNaN(sum) {
		t.Fatalf("%s: incomplete series (buckets=%d count=%v sum=%v)", id, len(les), count, sum)
	}
	for i := 1; i < len(les); i++ {
		if les[i] <= les[i-1] {
			t.Fatalf("%s: le not ascending at %d: %v", id, i, les)
		}
		if cums[i] < cums[i-1] {
			t.Fatalf("%s: cumulative counts decrease at %d: %v", id, i, cums)
		}
	}
	if !math.IsInf(les[len(les)-1], 1) {
		t.Fatalf("%s: missing +Inf bucket", id)
	}
	if cums[len(cums)-1] != count {
		t.Fatalf("%s: +Inf bucket %v != count %v", id, cums[len(cums)-1], count)
	}
	if count > 0 && sum <= 0 {
		t.Fatalf("%s: count %v but sum %v", id, count, sum)
	}
}

func TestDebugEndpoint(t *testing.T) {
	c, srv := newCluster(t, 300*time.Microsecond)
	commitN(t, c, 10)

	code, body := get(t, "http://"+srv.Addr()+"/debug/alc")
	if code != http.StatusOK {
		t.Fatalf("/debug/alc status %d", code)
	}
	var view obs.DebugView
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("/debug/alc did not decode: %v\n%s", err, body)
	}
	if len(view.Replicas) != 3 {
		t.Fatalf("got %d replicas, want 3", len(view.Replicas))
	}
	r0 := view.Replicas[0]
	if r0.Name != "r0" || !r0.InPrimary {
		t.Fatalf("r0 = %+v", r0)
	}
	if r0.Counters.Commits < 10 {
		t.Fatalf("r0 commits = %d, want >= 10", r0.Counters.Commits)
	}
	if len(r0.View.Members) != 3 {
		t.Fatalf("r0 view members = %v", r0.View.Members)
	}
	for _, stage := range []string{"execution", "lease_wait", "certification", "coalescer", "urb", "apply"} {
		if _, ok := r0.Stages[stage]; !ok {
			t.Fatalf("r0 missing stage summary %q", stage)
		}
	}
	if r0.Stages["execution"].Count == 0 {
		t.Fatal("r0 execution stage has no observations")
	}
	if r0.Store.Boxes == 0 {
		t.Fatal("r0 store reports zero boxes")
	}

	code, _ = get(t, "http://"+srv.Addr()+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
}

// TestStageCoherence is the acceptance check for the stage decomposition:
// on an uncontended serial workload the per-stage means must sum to the
// end-to-end commit latency mean within 20% (Apply overlaps the URB window
// and is excluded; see core.StageStats).
func TestStageCoherence(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-sensitive timing test")
	}
	c, _ := newCluster(t, 1*time.Millisecond)
	commitN(t, c, 120)

	s := c.Replica(0).Stats()
	if s.Aborts != 0 {
		t.Fatalf("workload was supposed to be uncontended, got %d aborts", s.Aborts)
	}
	st := s.Stages
	sum := st.Execution.Mean() + st.LeaseWait.Mean() + st.Certification.Mean() +
		st.Coalescer.Mean() + st.URB.Mean()
	e2e := s.CommitLatency.Mean()
	if e2e == 0 {
		t.Fatal("no end-to-end latency recorded")
	}
	gap := math.Abs(float64(sum-e2e)) / float64(e2e)
	t.Logf("stage sum %v vs end-to-end %v (gap %.1f%%): exec=%v leaseWait=%v cert=%v coalescer=%v urb=%v apply=%v",
		sum, e2e, gap*100, st.Execution.Mean(), st.LeaseWait.Mean(), st.Certification.Mean(),
		st.Coalescer.Mean(), st.URB.Mean(), st.Apply.Mean())
	if gap > 0.20 {
		t.Fatalf("stage decomposition incoherent: stage means sum to %v but end-to-end mean is %v (gap %.1f%% > 20%%)",
			sum, e2e, gap*100)
	}
}

// TestRoutingMetrics drives a cluster with every transaction placed at its
// rendezvous owner (Cluster.Preferred) and asserts the lease-outcome families
// appear in the exposition: the lease reuse rate — the placement win metric —
// must be observable without the bench harness.
func TestRoutingMetrics(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		N:    3,
		Core: core.Config{Protocol: core.ProtocolALC},
		Net:  memnet.Config{Latency: 300 * time.Microsecond},
		GCS:  testGCS(),
		Seed: map[string]stm.Value{"hot": 0},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)

	reg := obs.NewRegistry()
	for i := 0; i < c.N(); i++ {
		i := i
		reg.Register(fmt.Sprintf("r%d", i), func() *core.Replica { return c.Replica(i) })
	}
	srv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("obs.Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	for i := 0; i < 30; i++ {
		for origin := 0; origin < c.N(); origin++ {
			if err := c.Preferred([]string{"hot"}).Atomic(func(tx *stm.Txn) error {
				v, err := tx.Read("hot")
				if err != nil {
					return err
				}
				return tx.Write("hot", v.(int)+1)
			}); err != nil {
				t.Fatalf("Atomic at the preferred replica: %v", err)
			}
		}
	}

	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	types, samples := parseProm(t, body)
	for fam, typ := range map[string]string{
		"alc_lease_acquired_total":      "counter",
		"alc_lease_stolen_total":        "counter",
		"alc_piggybacked_commits_total": "counter",
		"alc_lease_reuse_ratio":         "gauge",
	} {
		if types[fam] != typ {
			t.Fatalf("family %s: type %q, want %q (families: %v)", fam, types[fam], typ, types)
		}
	}

	sum := func(name string, labels map[string]string) (total float64, found bool) {
		for _, s := range samples {
			if s.name != name {
				continue
			}
			match := true
			for k, v := range labels {
				if s.labels[k] != v {
					match = false
					break
				}
			}
			if match {
				total += s.value
				found = true
			}
		}
		return total, found
	}
	// The hot class's first commit anywhere is a lease miss: its write-set
	// rides on the lease request.
	if v, ok := sum("alc_piggybacked_commits_total", nil); !ok || v == 0 {
		t.Fatalf("alc_piggybacked_commits_total = %v (found %v), want > 0", v, ok)
	}
	// The hot class settled on one owner: that replica's scrape-time reuse
	// ratio must be high.
	best := 0.0
	for i := 0; i < c.N(); i++ {
		if v, ok := sum("alc_lease_reuse_ratio", map[string]string{"replica": fmt.Sprintf("r%d", i)}); ok && v > best {
			best = v
		}
	}
	if best < 0.5 {
		t.Fatalf("max alc_lease_reuse_ratio = %v, want >= 0.5", best)
	}
}

// TestWALDeltaDeclinedMetric restarts a durable replica after a gap wider
// than the coordinator's retained window: the delta is declined for evicted
// entries, and alc_wal_delta_declined_total says so with reason="evicted".
func TestWALDeltaDeclinedMetric(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		N:    3,
		Core: core.Config{Protocol: core.ProtocolALC, Durability: core.DurabilityConfig{Dir: t.TempDir(), Fsync: "off", Retain: 8}},
		Net:  memnet.Config{Latency: 300 * time.Microsecond},
		GCS:  testGCS(),
		Seed: map[string]stm.Value{"k": 0},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)
	reg := obs.NewRegistry()
	for i := 0; i < c.N(); i++ {
		i := i
		reg.Register(fmt.Sprintf("r%d", i), func() *core.Replica { return c.Replica(i) })
	}
	srv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("obs.Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	c.Crash(2)
	commitN(t, c, 40) // a gap of 40 outruns the 8-entry window
	if err := c.Restart(2); err != nil {
		t.Fatalf("restart: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for r := c.Replica(2); !r.InPrimary(); {
		if time.Now().After(deadline) {
			t.Fatal("replica 2 never rejoined the primary component")
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	types, samples := parseProm(t, body)
	if types["alc_wal_delta_declined_total"] != "counter" {
		t.Fatalf("alc_wal_delta_declined_total type %q, want counter", types["alc_wal_delta_declined_total"])
	}
	byReason := make(map[string]float64)
	for _, s := range samples {
		if s.name == "alc_wal_delta_declined_total" {
			byReason[s.labels["reason"]] += s.value
		}
	}
	if len(byReason) != 3 || byReason["ahead"] != 0 || byReason["epoch"] != 0 || byReason["evicted"] < 1 {
		t.Fatalf("alc_wal_delta_declined_total by reason = %v, want evicted >= 1 and ahead, epoch 0", byReason)
	}
}

// opaque is a box value type with no codec.
type opaque struct{ N int }

// TestWALRetainAndTransferMetrics drives the delta window's gauges and the
// transfer record to non-zero values and reads them where an operator does:
// alc_wal_retained_bytes, alc_wal_retain_unencodable_total, and the
// retained_bytes and transfers fields of /debug/alc. A value with no codec
// cannot enter the window, and the joiner that lacks it is sent a full
// transfer, recorded by the coordinator with the reason it declined a delta.
func TestWALRetainAndTransferMetrics(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		N:    3,
		Core: core.Config{Protocol: core.ProtocolALC, Durability: core.DurabilityConfig{Dir: t.TempDir(), Fsync: "off"}},
		Net:  memnet.Config{Latency: 300 * time.Microsecond},
		GCS:  testGCS(),
		Seed: map[string]stm.Value{"k": 0},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)
	reg := obs.NewRegistry()
	for i := 0; i < c.N(); i++ {
		i := i
		reg.Register(fmt.Sprintf("r%d", i), func() *core.Replica { return c.Replica(i) })
	}
	srv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("obs.Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	c.Crash(2)
	commitN(t, c, 5)
	if err := c.Replica(0).Atomic(func(tx *stm.Txn) error { return tx.Write("opaque", opaque{N: 1}) }); err != nil {
		t.Fatalf("write a value with no codec: %v", err)
	}
	if err := c.Restart(2); err != nil {
		t.Fatalf("restart: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for r := c.Replica(2); !r.InPrimary(); {
		if time.Now().After(deadline) {
			t.Fatal("replica 2 never rejoined the primary component")
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	types, samples := parseProm(t, body)
	if types["alc_wal_retained_bytes"] != "gauge" || types["alc_wal_retain_unencodable_total"] != "counter" {
		t.Fatalf("types: retained_bytes %q, retain_unencodable_total %q", types["alc_wal_retained_bytes"], types["alc_wal_retain_unencodable_total"])
	}
	sums := make(map[string]float64)
	for _, s := range samples {
		if s.labels["replica"] == "r0" {
			sums[s.name] += s.value
		}
	}
	if sums["alc_wal_retained_bytes"] <= 0 || sums["alc_wal_retain_unencodable_total"] != 1 {
		t.Fatalf("r0: alc_wal_retained_bytes %v, alc_wal_retain_unencodable_total %v; want > 0 and 1",
			sums["alc_wal_retained_bytes"], sums["alc_wal_retain_unencodable_total"])
	}

	code, body = get(t, "http://"+srv.Addr()+"/debug/alc")
	if code != http.StatusOK {
		t.Fatalf("/debug/alc status %d", code)
	}
	var view obs.DebugView
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("/debug/alc did not decode: %v\n%s", err, body)
	}
	var served []core.Transfer
	if w := view.Replicas[0].WAL; w == nil || w.RetainedBytes <= 0 || w.RetainUnencodable != 1 {
		t.Fatalf("r0: wal %+v, want retained_bytes > 0 and retain_unencodable 1", w)
	}
	for _, r := range view.Replicas {
		for _, x := range r.WAL.Transfers {
			if x.Served && x.Joiner == 2 {
				served = append(served, x)
			}
		}
	}
	if len(served) == 0 || served[0].Kind != core.TransferFull || served[0].Declined != "evicted" || served[0].Frontier == nil {
		t.Fatalf("transfers served to replica 2 = %+v, want first a full one declined as evicted for an advertised frontier", served)
	}
}

// TestRegistryCancel verifies cancel removes exactly the registered entry
// and that re-registering a name supersedes the old getter.
func TestRegistryCancel(t *testing.T) {
	reg := obs.NewRegistry()
	cancel1 := reg.Register("x", func() *core.Replica { return nil })
	cancel2 := reg.Register("x", func() *core.Replica { return nil })
	cancel1() // stale: must not remove the newer registration
	// A nil-returning getter is skipped, so the name must not panic a scrape.
	srv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, _ := get(t, "http://"+srv.Addr()+"/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	cancel2()
}

// TestStatsConcurrentReaders hammers Replica.Stats() (and the /metrics
// scrape path built on it) from several goroutines while the replica keeps
// committing — the race detector guards the snapshot paths, and the test
// asserts the counters it reads are monotone.
func TestStatsConcurrentReaders(t *testing.T) {
	c, srv := newCluster(t, 200*time.Microsecond)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = c.Replica(0).Atomic(func(tx *stm.Txn) error {
				v, err := tx.Read("k")
				if err != nil {
					return err
				}
				return tx.Write("k", v.(int)+1)
			})
		}
	}()

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastCommits, lastCount int64
			for i := 0; i < 200; i++ {
				s := c.Replica(0).Stats()
				if s.Commits < lastCommits {
					t.Errorf("Commits went backwards: %d -> %d", lastCommits, s.Commits)
					return
				}
				lastCommits = s.Commits
				if n := s.CommitLatency.Count(); n < lastCount {
					t.Errorf("CommitLatency count went backwards: %d -> %d", lastCount, n)
					return
				} else {
					lastCount = n
				}
				if s.CommitLatency.Count() > 0 && s.CommitLatency.Mean() <= 0 {
					t.Errorf("inconsistent snapshot: count %d mean %v",
						s.CommitLatency.Count(), s.CommitLatency.Mean())
					return
				}
			}
		}()
	}
	// One goroutine scrapes over HTTP, exercising the full exposition path
	// concurrently with the committers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			resp, err := http.Get("http://" + srv.Addr() + "/metrics")
			if err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestWALDegradedAndSnapshotMetrics drives the durability tier's silent
// paths to non-zero values where an operator reads them: periodic snapshots
// (SnapshotEvery 4) fill alc_wal_snapshot_seconds, and a value with no codec
// turns persistence off, which alc_wal_degraded reports.
func TestWALDegradedAndSnapshotMetrics(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		N:    3,
		Core: core.Config{Protocol: core.ProtocolALC, Durability: core.DurabilityConfig{Dir: t.TempDir(), Fsync: "off", SnapshotEvery: 4}},
		Net:  memnet.Config{Latency: 300 * time.Microsecond},
		GCS:  testGCS(),
		Seed: map[string]stm.Value{"k": 0},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)
	reg := obs.NewRegistry()
	reg.Register("r0", func() *core.Replica { return c.Replica(0) })
	srv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("obs.Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	scrape := func() (map[string]string, map[string]float64) {
		code, body := get(t, "http://"+srv.Addr()+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics status %d", code)
		}
		types, samples := parseProm(t, body)
		values := make(map[string]float64)
		for _, s := range samples {
			values[s.name] = s.value
		}
		return types, values
	}

	commitN(t, c, 10)
	types, values := scrape()
	if types["alc_wal_snapshot_seconds"] != "histogram" || types["alc_wal_degraded"] != "gauge" {
		t.Fatalf("types: snapshot_seconds %q, degraded %q", types["alc_wal_snapshot_seconds"], types["alc_wal_degraded"])
	}
	if values["alc_wal_snapshot_seconds_count"] < 1 || values["alc_wal_degraded"] != 0 {
		t.Fatalf("after 10 commits: alc_wal_snapshot_seconds_count %v, alc_wal_degraded %v; want >= 1 and 0",
			values["alc_wal_snapshot_seconds_count"], values["alc_wal_degraded"])
	}

	if err := c.Replica(0).Atomic(func(tx *stm.Txn) error { return tx.Write("opaque", opaque{N: 1}) }); err != nil {
		t.Fatalf("write a value with no codec: %v", err)
	}
	if _, values = scrape(); values["alc_wal_degraded"] != 1 {
		t.Fatalf("alc_wal_degraded = %v after an unloggable write-set, want 1", values["alc_wal_degraded"])
	}
}
