// Package obs exposes a running replica's commit-pipeline internals over
// HTTP: a Prometheus text exposition of every counter, gauge and per-stage
// latency histogram (/metrics), a JSON introspection view of the lease
// table, group-communication view and queue depths (/debug/alc), and the
// standard pprof profiling handlers (/debug/pprof/*). The server is opt-in:
// nothing listens unless a binary passes -http or a test calls Serve.
//
// The package deliberately has no third-party dependencies: the exposition
// writer emits the Prometheus text format directly from the immutable
// metrics snapshots (metrics.HistogramSnapshot, core.Stats), so the
// observability surface costs one Stats() call per scrape and never touches
// the commit path.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/alcstm/alc/internal/clientsrv"
	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/metrics"
	"github.com/alcstm/alc/internal/transport"
)

// Registry names the replicas an obs server reports on. Replicas are
// registered as getters, not pointers, because a replica's identity changes
// across crash/restart cycles (the cluster harness swaps the underlying
// *core.Replica); a getter returning nil is skipped by every endpoint.
type Registry struct {
	mu        sync.Mutex
	entries   map[string]*entry
	admission map[string]*admissionEntry
}

type entry struct {
	name string
	get  func() *core.Replica
}

type admissionEntry struct {
	name string
	get  func() *clientsrv.Server
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		entries:   make(map[string]*entry),
		admission: make(map[string]*admissionEntry),
	}
}

// Default is the process-wide registry. Cluster harnesses auto-register
// their replicas here so that a single -http flag observes everything the
// process runs.
var Default = NewRegistry()

// Register adds a named replica getter and returns a cancel function that
// removes it. Registering a name twice replaces the previous getter (the
// older cancel then becomes a no-op).
func (g *Registry) Register(name string, get func() *core.Replica) (cancel func()) {
	e := &entry{name: name, get: get}
	g.mu.Lock()
	g.entries[name] = e
	g.mu.Unlock()
	return func() {
		g.mu.Lock()
		if g.entries[name] == e {
			delete(g.entries, name)
		}
		g.mu.Unlock()
	}
}

// RegisterAdmission adds a named client-server getter (the replica's client
// front door) and returns a cancel function that removes it. Its admission
// counters are exported as the alc_admission_* metric families.
func (g *Registry) RegisterAdmission(name string, get func() *clientsrv.Server) (cancel func()) {
	e := &admissionEntry{name: name, get: get}
	g.mu.Lock()
	g.admission[name] = e
	g.mu.Unlock()
	return func() {
		g.mu.Lock()
		if g.admission[name] == e {
			delete(g.admission, name)
		}
		g.mu.Unlock()
	}
}

// snapshot returns the live entries sorted by name for deterministic output.
func (g *Registry) snapshot() []*entry {
	g.mu.Lock()
	out := make([]*entry, 0, len(g.entries))
	for _, e := range g.entries {
		out = append(out, e)
	}
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// admissionSnapshot returns the live client-server entries sorted by name.
func (g *Registry) admissionSnapshot() []*admissionEntry {
	g.mu.Lock()
	out := make([]*admissionEntry, 0, len(g.admission))
	for _, e := range g.admission {
		out = append(out, e)
	}
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Handler returns the HTTP handler serving /metrics, /debug/alc and
// /debug/pprof/* over the given registry.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, reg)
	})
	mux.HandleFunc("/debug/alc", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(debugView(reg))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running obs HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an obs server on addr (e.g. ":8080", "127.0.0.1:0") over the
// given registry (nil means Default).
func Serve(addr string, reg *Registry) (*Server, error) {
	if reg == nil {
		reg = Default
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(reg)}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the server's bound address (resolves ":0" ports).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately.
func (s *Server) Close() error { return s.srv.Close() }

// ---------------------------------------------------------------------------
// Prometheus text exposition

// repSample is one replica's scrape-time snapshot.
type repSample struct {
	name    string
	id      transport.ID
	primary bool
	view    gcs.View
	stats   core.Stats
}

func collect(reg *Registry) []repSample {
	var out []repSample
	for _, e := range reg.snapshot() {
		r := e.get()
		if r == nil {
			continue
		}
		out = append(out, repSample{
			name:    e.name,
			id:      r.ID(),
			primary: r.InPrimary(),
			view:    r.GCS().CurrentView(),
			stats:   r.Stats(),
		})
	}
	return out
}

func writeMetrics(w io.Writer, reg *Registry) {
	samples := collect(reg)

	counter := func(fam, help string, get func(repSample) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", fam, help, fam)
		for _, s := range samples {
			fmt.Fprintf(w, "%s{replica=%q} %d\n", fam, s.name, get(s))
		}
	}
	counter("alc_commits_total", "Committed update transactions.",
		func(s repSample) int64 { return s.stats.Commits })
	counter("alc_aborts_total", "Certification/validation failures (each retried).",
		func(s repSample) int64 { return s.stats.Aborts })
	fmt.Fprintf(w, "# HELP alc_aborts_by_cause_total Aborted attempts by cause; the causes sum to alc_aborts_total.\n# TYPE alc_aborts_by_cause_total counter\n")
	for _, s := range samples {
		ac := s.stats.AbortCauses
		fmt.Fprintf(w, "alc_aborts_by_cause_total{replica=%q,cause=\"early\"} %d\n", s.name, ac.Early)
		fmt.Fprintf(w, "alc_aborts_by_cause_total{replica=%q,cause=\"final\"} %d\n", s.name, ac.Final)
		fmt.Fprintf(w, "alc_aborts_by_cause_total{replica=%q,cause=\"payload\"} %d\n", s.name, ac.Payload)
		fmt.Fprintf(w, "alc_aborts_by_cause_total{replica=%q,cause=\"deadlock\"} %d\n", s.name, ac.Deadlock)
	}
	counter("alc_readonly_total", "Completed read-only transactions.",
		func(s repSample) int64 { return s.stats.ReadOnly })
	counter("alc_lease_requests_total", "Lease requests atomically broadcast.",
		func(s repSample) int64 { return s.stats.Lease.Requested })
	counter("alc_lease_reuses_total", "Commits served by an already-held lease.",
		func(s repSample) int64 { return s.stats.Lease.Reused })
	counter("alc_lease_acquired_total", "Fresh lease acquisitions that reached enablement (one OAB each).",
		func(s repSample) int64 { return s.stats.Lease.Acquired })
	counter("alc_lease_stolen_total", "Enabled local leases lost to a remote request.",
		func(s repSample) int64 { return s.stats.Lease.Stolen })
	counter("alc_lease_frees_total", "Lease requests released by this replica.",
		func(s repSample) int64 { return s.stats.Lease.Freed })
	counter("alc_batches_total", "Write-set batches URB-broadcast.",
		func(s repSample) int64 { return s.stats.Batch.Batches })
	counter("alc_batched_txns_total", "Transactions carried by write-set batches.",
		func(s repSample) int64 { return s.stats.Batch.BatchedTxns })
	counter("alc_stm_applied_total", "Write-sets committed into the local store (local + remote).",
		func(s repSample) int64 { return s.stats.STM.Applied })
	counter("alc_stm_stripe_contention_total", "Store commit-lock acquisitions that had to block.",
		func(s repSample) int64 { return s.stats.STM.StripeContention })
	counter("alc_stm_gc_runs_total", "Store GC invocations.",
		func(s repSample) int64 { return s.stats.STM.GCRuns })
	counter("alc_stm_gc_pruned_total", "Versions discarded by store GC.",
		func(s repSample) int64 { return s.stats.STM.GCPruned })
	counter("alc_piggybacked_commits_total", "Commits whose write-set rode on their lease request (§4.5(c), the lease-miss path).",
		func(s repSample) int64 { return s.stats.Piggybacked })
	counter("alc_wal_records_total", "Write-set records appended to the write-ahead log.",
		func(s repSample) int64 { return s.stats.WAL.Records })
	counter("alc_wal_appended_bytes_total", "Bytes appended to the write-ahead log (frames included).",
		func(s repSample) int64 { return s.stats.WAL.AppendedBytes })
	counter("alc_wal_snapshots_total", "Durable store snapshots taken (each rewrites the log to its base record).",
		func(s repSample) int64 { return s.stats.WAL.Snapshots })
	counter("alc_wal_replayed_records_total", "WAL records replayed by the last recovery.",
		func(s repSample) int64 { return s.stats.WAL.ReplayedRecords })
	counter("alc_wal_deltas_served_total", "Delta state transfers served to rejoining replicas.",
		func(s repSample) int64 { return s.stats.WAL.DeltasServed })
	counter("alc_wal_fulls_served_total", "Full state transfers served (joiner advertised no frontier, or its delta was declined).",
		func(s repSample) int64 { return s.stats.WAL.FullsServed })
	counter("alc_wal_retain_unencodable_total", "Applied entries the delta window could not keep because a value has no codec; each counts as evicted at once.",
		func(s repSample) int64 { return s.stats.WAL.RetainUnencodable })
	counter("alc_wal_errors_total", "Durability faults (write failures degrade the replica to memory-only; recovery discards count too).",
		func(s repSample) int64 { return s.stats.WAL.Errors })
	fmt.Fprintf(w, "# HELP alc_wal_filtered_total Entries dropped by the apply path's frontier filter: seen before (a duplicate, e.g. a delta install over a stale frontier) or never (an acknowledged commit being lost; must stay 0).\n# TYPE alc_wal_filtered_total counter\n")
	for _, s := range samples {
		fmt.Fprintf(w, "alc_wal_filtered_total{replica=%q,seen=\"before\"} %d\n", s.name, s.stats.WAL.FilteredSeen)
		fmt.Fprintf(w, "alc_wal_filtered_total{replica=%q,seen=\"never\"} %d\n", s.name, s.stats.WAL.FilteredNeverSeen)
	}
	fmt.Fprintf(w, "# HELP alc_wal_delta_declined_total Joiners that advertised a frontier but were sent a full transfer, by why the delta was declined: frontier ahead of ours, TO lane of another epoch, or gap reaching evicted entries.\n# TYPE alc_wal_delta_declined_total counter\n")
	for _, s := range samples {
		d := s.stats.WAL.DeltaDeclined
		fmt.Fprintf(w, "alc_wal_delta_declined_total{replica=%q,reason=\"ahead\"} %d\n", s.name, d.Ahead)
		fmt.Fprintf(w, "alc_wal_delta_declined_total{replica=%q,reason=\"epoch\"} %d\n", s.name, d.Epoch)
		fmt.Fprintf(w, "alc_wal_delta_declined_total{replica=%q,reason=\"evicted\"} %d\n", s.name, d.Evicted)
	}

	fmt.Fprintf(w, "# HELP alc_lease_reuse_ratio Fraction of lease establishments served by a retained lease (the placement win metric).\n# TYPE alc_lease_reuse_ratio gauge\n")
	for _, s := range samples {
		fmt.Fprintf(w, "alc_lease_reuse_ratio{replica=%q} %s\n", s.name,
			strconv.FormatFloat(s.stats.Lease.ReuseRate(), 'g', -1, 64))
	}

	admission := reg.admissionSnapshot()
	if len(admission) > 0 {
		type admSample struct {
			name  string
			stats clientsrv.Stats
		}
		var as []admSample
		for _, e := range admission {
			if s := e.get(); s != nil {
				as = append(as, admSample{name: e.name, stats: s.Stats()})
			}
		}
		admCounter := func(fam, help string, get func(clientsrv.Stats) int64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", fam, help, fam)
			for _, s := range as {
				fmt.Fprintf(w, "%s{server=%q} %d\n", fam, s.name, get(s.stats))
			}
		}
		admCounter("alc_admission_conns_total", "Accepted client connections.",
			func(s clientsrv.Stats) int64 { return s.Conns })
		admCounter("alc_admission_handshake_rejects_total", "Client-port connections refused at handshake.",
			func(s clientsrv.Stats) int64 { return s.HandshakeRejects })
		admCounter("alc_admission_admitted_total", "Client requests dispatched to the backend.",
			func(s clientsrv.Stats) int64 { return s.Admitted })
		admCounter("alc_admission_shed_total", "Client requests shed with the retryable overloaded status.",
			func(s clientsrv.Stats) int64 { return s.Shed })
		admCounter("alc_admission_completed_total", "Admitted client requests answered.",
			func(s clientsrv.Stats) int64 { return s.Completed })
		fmt.Fprintf(w, "# HELP alc_admission_inflight Client requests executing right now.\n# TYPE alc_admission_inflight gauge\n")
		for _, s := range as {
			fmt.Fprintf(w, "alc_admission_inflight{server=%q} %d\n", s.name, s.stats.Inflight)
		}
		fmt.Fprintf(w, "# HELP alc_admission_pending_limit Server-wide inflight threshold beyond which requests are shed.\n# TYPE alc_admission_pending_limit gauge\n")
		for _, s := range as {
			fmt.Fprintf(w, "alc_admission_pending_limit{server=%q} %d\n", s.name, s.stats.PendingLimit)
		}
	}

	fmt.Fprintf(w, "# HELP alc_wal_snapshot_age_seconds Seconds since the last durable store snapshot (-1: never taken).\n# TYPE alc_wal_snapshot_age_seconds gauge\n")
	for _, s := range samples {
		age := -1.0
		if ns := s.stats.WAL.LastSnapshotUnixNano; ns > 0 {
			age = time.Since(time.Unix(0, ns)).Seconds()
		}
		fmt.Fprintf(w, "alc_wal_snapshot_age_seconds{replica=%q} %s\n", s.name,
			strconv.FormatFloat(age, 'g', -1, 64))
	}
	fmt.Fprintf(w, "# HELP alc_wal_retained_entries Applied write-set entries retained for serving delta transfers.\n# TYPE alc_wal_retained_entries gauge\n")
	for _, s := range samples {
		fmt.Fprintf(w, "alc_wal_retained_entries{replica=%q} %d\n", s.name, s.stats.WAL.RetainedEntries)
	}
	fmt.Fprintf(w, "# HELP alc_wal_retained_bytes Bytes of the segments that hold the delta window's entries in wire encoding.\n# TYPE alc_wal_retained_bytes gauge\n")
	for _, s := range samples {
		fmt.Fprintf(w, "alc_wal_retained_bytes{replica=%q} %d\n", s.name, s.stats.WAL.RetainedBytes)
	}
	fmt.Fprintf(w, "# HELP alc_wal_degraded Whether a log write or encode failure turned persistence off (the replica runs memory-only).\n# TYPE alc_wal_degraded gauge\n")
	for _, s := range samples {
		v := 0
		if s.stats.WAL.Degraded {
			v = 1
		}
		fmt.Fprintf(w, "alc_wal_degraded{replica=%q} %d\n", s.name, v)
	}
	fmt.Fprintf(w, "# HELP alc_wal_replay_duration_seconds WAL replay time of the last recovery.\n# TYPE alc_wal_replay_duration_seconds gauge\n")
	for _, s := range samples {
		fmt.Fprintf(w, "alc_wal_replay_duration_seconds{replica=%q} %s\n", s.name,
			strconv.FormatFloat(s.stats.WAL.ReplayDuration.Seconds(), 'g', -1, 64))
	}

	fmt.Fprintf(w, "# HELP alc_wal_fsync_latency_seconds WAL fsync call latency.\n# TYPE alc_wal_fsync_latency_seconds histogram\n")
	for _, s := range samples {
		writeHist(w, "alc_wal_fsync_latency_seconds",
			fmt.Sprintf("replica=%q", s.name), s.stats.WAL.FsyncLatency)
	}
	fmt.Fprintf(w, "# HELP alc_wal_snapshot_seconds Durable snapshot duration (store cut, encode, the log rewrite and its fsyncs); periodic and full-install snapshots block the GCS dispatcher meanwhile.\n# TYPE alc_wal_snapshot_seconds histogram\n")
	for _, s := range samples {
		writeHist(w, "alc_wal_snapshot_seconds",
			fmt.Sprintf("replica=%q", s.name), s.stats.WAL.SnapshotLatency)
	}

	fmt.Fprintf(w, "# HELP alc_in_primary Whether the replica is in the primary component.\n# TYPE alc_in_primary gauge\n")
	for _, s := range samples {
		v := 0
		if s.primary {
			v = 1
		}
		fmt.Fprintf(w, "alc_in_primary{replica=%q} %d\n", s.name, v)
	}
	fmt.Fprintf(w, "# HELP alc_view_members Members in the replica's current view.\n# TYPE alc_view_members gauge\n")
	for _, s := range samples {
		fmt.Fprintf(w, "alc_view_members{replica=%q} %d\n", s.name, len(s.view.Members))
	}

	fmt.Fprintf(w, "# HELP alc_queue_depth Instantaneous commit-pipeline queue depths.\n# TYPE alc_queue_depth gauge\n")
	for _, s := range samples {
		q := s.stats.Queues
		depths := []struct {
			queue string
			v     int64
		}{
			{"coalescer", q.CoalescerPending},
			{"lease_waiters", q.LeaseWaiters},
			{"gcs_outbox", int64(q.GCS.Outbox)},
			{"gcs_urb_pending", int64(q.GCS.URBPending)},
			{"gcs_urb_retained", int64(q.GCS.URBRetained)},
			{"gcs_seq_queue", int64(q.GCS.SeqQueue)},
			{"gcs_dispatch", int64(q.GCS.Dispatch)},
			{"stm_active_txns", int64(s.stats.STM.ActiveTxns)},
		}
		for _, d := range depths {
			fmt.Fprintf(w, "alc_queue_depth{replica=%q,queue=%q} %d\n", s.name, d.queue, d.v)
		}
	}

	fmt.Fprintf(w, "# HELP alc_commit_latency_seconds End-to-end update-commit latency (first attempt to durable commit).\n# TYPE alc_commit_latency_seconds histogram\n")
	for _, s := range samples {
		writeHist(w, "alc_commit_latency_seconds",
			fmt.Sprintf("replica=%q", s.name), s.stats.CommitLatency)
	}

	fmt.Fprintf(w, "# HELP alc_stage_latency_seconds Per-stage commit-pipeline latency (see core.StageStats).\n# TYPE alc_stage_latency_seconds histogram\n")
	for _, s := range samples {
		st := s.stats.Stages
		stages := []struct {
			stage string
			h     metrics.HistogramSnapshot
		}{
			{"execution", st.Execution},
			{"lease_wait", st.LeaseWait},
			{"certification", st.Certification},
			{"coalescer", st.Coalescer},
			{"urb", st.URB},
			{"apply", st.Apply},
		}
		for _, sg := range stages {
			writeHist(w, "alc_stage_latency_seconds",
				fmt.Sprintf("replica=%q,stage=%q", s.name, sg.stage), sg.h)
		}
	}
}

// writeHist emits one histogram in the Prometheus text format: cumulative
// buckets with le in seconds, a +Inf bucket, _sum and _count. labels is the
// rendered label body without braces ("replica=\"x\",stage=\"urb\"").
func writeHist(w io.Writer, fam, labels string, s metrics.HistogramSnapshot) {
	bounds := metrics.BucketBounds()
	counts := s.BucketCounts()
	// Leading empty buckets are suppressed (cumulative count still zero) and
	// so is everything after the last populated bucket (the cumulative count
	// no longer changes; +Inf closes the family) — cumulative bucket
	// semantics make both elisions lossless. The last bucket is unbounded
	// above, so its finite bound is never emitted, only +Inf.
	last := -1
	for i, n := range counts {
		if n != 0 {
			last = i
		}
	}
	var cum int64
	for i := 0; i <= last && i < len(counts)-1; i++ {
		cum += counts[i]
		if cum == 0 {
			continue
		}
		fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n",
			fam, labels, formatSeconds(bounds[i]), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", fam, labels, s.Count())
	fmt.Fprintf(w, "%s_sum{%s} %s\n", fam, labels,
		strconv.FormatFloat(s.Sum().Seconds(), 'g', -1, 64))
	fmt.Fprintf(w, "%s_count{%s} %d\n", fam, labels, s.Count())
}

func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// ---------------------------------------------------------------------------
// /debug/alc JSON view

// HistSummary is a compact JSON rendering of a latency histogram.
type HistSummary struct {
	Count int64  `json:"count"`
	Mean  string `json:"mean"`
	P50   string `json:"p50"`
	P99   string `json:"p99"`
	Max   string `json:"max"`
}

func summarize(s metrics.HistogramSnapshot) HistSummary {
	return HistSummary{
		Count: s.Count(),
		Mean:  s.Mean().String(),
		P50:   s.Quantile(0.50).String(),
		P99:   s.Quantile(0.99).String(),
		Max:   s.Max().String(),
	}
}

// DebugView is the /debug/alc document: one DebugReplica per registered,
// live replica.
type DebugView struct {
	Replicas []DebugReplica `json:"replicas"`
}

// DebugReplica is one replica's introspection snapshot.
type DebugReplica struct {
	Name      string                 `json:"name"`
	ID        transport.ID           `json:"id"`
	InPrimary bool                   `json:"in_primary"`
	View      ViewInfo               `json:"view"`
	Counters  Counters               `json:"counters"`
	Queues    core.QueueStats        `json:"queues"`
	Stages    map[string]HistSummary `json:"stages"`
	Commit    HistSummary            `json:"commit_latency"`
	Lease     lease.DebugSnapshot    `json:"lease"`
	Store     StoreInfo              `json:"store"`
	WAL       *WALInfo               `json:"wal,omitempty"`
}

// WALInfo summarizes the durability tier (present only when a durability
// directory is configured).
type WALInfo struct {
	Records               int64       `json:"records"`
	AppendedBytes         int64       `json:"appended_bytes"`
	Fsync                 HistSummary `json:"fsync_latency"`
	Snapshots             int64       `json:"snapshots"`
	LastSnapshot          string      `json:"last_snapshot,omitempty"`
	RecoveredFromSnapshot bool        `json:"recovered_from_snapshot"`
	ReplayedRecords       int64       `json:"replayed_records"`
	ReplayedEntries       int64       `json:"replayed_entries"`
	ReplayDuration        string      `json:"replay_duration"`
	DeltasServed          int64       `json:"deltas_served"`
	FullsServed           int64       `json:"fulls_served"`
	DeltaInstalled        int64       `json:"delta_installed"`
	FullInstalled         int64       `json:"full_installed"`
	RetainedEntries       int64       `json:"retained_entries"`
	RetainedBytes         int64       `json:"retained_bytes"`
	RetainUnencodable     int64       `json:"retain_unencodable"`
	// Transfers is the replica's record of state-transfer decisions, oldest
	// first (core.Transfer).
	Transfers []core.Transfer `json:"transfers"`
	Errors    int64           `json:"errors"`
}

// ViewInfo is the current group-communication view.
type ViewInfo struct {
	ID       uint64         `json:"id"`
	Members  []transport.ID `json:"members"`
	Primary  bool           `json:"primary"`
	Rejoined []transport.ID `json:"rejoined,omitempty"`
}

// Counters are the replica's protocol totals.
type Counters struct {
	Commits        int64   `json:"commits"`
	Aborts         int64   `json:"aborts"`
	ReadOnly       int64   `json:"read_only"`
	Piggybacked    int64   `json:"piggybacked"`
	LeaseRequests  int64   `json:"lease_requests"`
	LeaseReuses    int64   `json:"lease_reuses"`
	LeaseAcquired  int64   `json:"lease_acquired"`
	LeaseStolen    int64   `json:"lease_stolen"`
	LeaseReuseRate float64 `json:"lease_reuse_rate"`
	LeaseFrees     int64   `json:"lease_frees"`
	Batches        int64   `json:"batches"`
	BatchedTxns    int64   `json:"batched_txns"`
}

// StoreInfo summarizes the local multi-version store and its commit
// pipeline.
type StoreInfo struct {
	Boxes            int   `json:"boxes"`
	Restores         int64 `json:"restores"`
	ActiveTxns       int   `json:"active_txns"`
	Applied          int64 `json:"applied"`
	StripeContention int64 `json:"stripe_contention"`
	GCRuns           int64 `json:"gc_runs"`
	GCPruned         int64 `json:"gc_pruned"`
}

func debugView(reg *Registry) DebugView {
	v := DebugView{Replicas: []DebugReplica{}}
	for _, e := range reg.snapshot() {
		r := e.get()
		if r == nil {
			continue
		}
		s := r.Stats()
		view := r.GCS().CurrentView()
		var walInfo *WALInfo
		if s.WAL.Enabled {
			walInfo = &WALInfo{
				Records:               s.WAL.Records,
				AppendedBytes:         s.WAL.AppendedBytes,
				Fsync:                 summarize(s.WAL.FsyncLatency),
				Snapshots:             s.WAL.Snapshots,
				RecoveredFromSnapshot: s.WAL.RecoveredFromSnapshot,
				ReplayedRecords:       s.WAL.ReplayedRecords,
				ReplayedEntries:       s.WAL.ReplayedEntries,
				ReplayDuration:        s.WAL.ReplayDuration.String(),
				DeltasServed:          s.WAL.DeltasServed,
				FullsServed:           s.WAL.FullsServed,
				DeltaInstalled:        s.WAL.DeltaInstalled,
				FullInstalled:         s.WAL.FullInstalled,
				RetainedEntries:       s.WAL.RetainedEntries,
				RetainedBytes:         s.WAL.RetainedBytes,
				RetainUnencodable:     s.WAL.RetainUnencodable,
				Transfers:             s.WAL.Transfers,
				Errors:                s.WAL.Errors,
			}
			if ns := s.WAL.LastSnapshotUnixNano; ns > 0 {
				walInfo.LastSnapshot = time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
			}
		}
		v.Replicas = append(v.Replicas, DebugReplica{
			Name:      e.name,
			ID:        r.ID(),
			InPrimary: r.InPrimary(),
			View: ViewInfo{
				ID:       view.ID,
				Members:  view.Members,
				Primary:  view.Primary,
				Rejoined: view.Rejoined,
			},
			Counters: Counters{
				Commits:        s.Commits,
				Aborts:         s.Aborts,
				ReadOnly:       s.ReadOnly,
				Piggybacked:    s.Piggybacked,
				LeaseRequests:  s.Lease.Requested,
				LeaseReuses:    s.Lease.Reused,
				LeaseAcquired:  s.Lease.Acquired,
				LeaseStolen:    s.Lease.Stolen,
				LeaseReuseRate: s.Lease.ReuseRate(),
				LeaseFrees:     s.Lease.Freed,
				Batches:        s.Batch.Batches,
				BatchedTxns:    s.Batch.BatchedTxns,
			},
			Queues: s.Queues,
			Stages: map[string]HistSummary{
				"execution":     summarize(s.Stages.Execution),
				"lease_wait":    summarize(s.Stages.LeaseWait),
				"certification": summarize(s.Stages.Certification),
				"coalescer":     summarize(s.Stages.Coalescer),
				"urb":           summarize(s.Stages.URB),
				"apply":         summarize(s.Stages.Apply),
			},
			Commit: summarize(s.CommitLatency),
			Lease:  r.LeaseManager().Debug(),
			// STM counters come from the Stats() snapshot: a scrape costs
			// a few atomic loads, never the store's commit lock the old
			// len(Snapshot().Boxes) took.
			Store: StoreInfo{
				Boxes:            s.STM.Boxes,
				Restores:         r.Store().Restores(),
				ActiveTxns:       s.STM.ActiveTxns,
				Applied:          s.STM.Applied,
				StripeContention: s.STM.StripeContention,
				GCRuns:           s.STM.GCRuns,
				GCPruned:         s.STM.GCPruned,
			},
			WAL: walInfo,
		})
	}
	return v
}
