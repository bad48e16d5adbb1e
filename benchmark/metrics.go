package main

import "fmt"

// metricDef declares one metric the benchmark prints. BENCHMARK.json at the
// repository root repeats these declarations for the driver; a test keeps
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse (0 for per-layer metrics: they are not gated).
	Bound float64
}

// endToEnd are the gated metrics; every workload reports all of them from
// the untraced run. The bounds are what this host can resolve, not what one
// would wish: ten 20 s runs of one binary spread (distance between the
// quartiles over the median) 5-13 % in the four time-based metrics on a quiet
// quarter of an hour and 25-45 % on a busy one, because the host's speed
// drifts over minutes with its neighbours' load (README, "How steady").
// setup_s carries the largest bound, as the driver's contract asks.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"closed_p50_ms", "ms", "lower", 0.25},
	{"closed_p95_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer are the traced run's metrics, grouped by the layer (package under
// internal/) they describe. A metric that does not apply to a workload, or
// whose layer driver runs in another workload's traced run, reads 0.
var perLayer = []metricDef{
	{"clientsrv.turn_us", "us", "lower", 0},
	{"clientsrv.admitted", "count", "higher", 0},
	{"clientsrv.shed", "count", "lower", 0},
	{"clientsrv.ping_us", "us", "lower", 0},

	{"core.stage_exec_us", "us", "lower", 0},
	{"core.stage_lease_wait_us", "us", "lower", 0},
	{"core.stage_cert_us", "us", "lower", 0},
	{"core.stage_coalescer_us", "us", "lower", 0},
	{"core.stage_urb_us", "us", "lower", 0},
	{"core.stage_apply_us", "us", "lower", 0},
	{"core.commit_us", "us", "lower", 0},
	{"core.aborts_per_commit", "ratio", "lower", 0},
	{"core.batch_mean_txns", "count", "lower", 0},
	{"core.cross_commit_share", "ratio", "lower", 0},
	{"core.lost_acked_writes", "count", "lower", 0},

	{"lease.reuse_ratio", "ratio", "higher", 0},
	{"lease.acquired_per_commit", "ratio", "lower", 0},
	{"lease.stolen_per_commit", "ratio", "lower", 0},
	{"lease.freed_per_commit", "ratio", "lower", 0},
	{"lease.tryreuse_ns_t128", "ns", "lower", 0},
	{"lease.tryreuse_ns_t1024", "ns", "lower", 0},
	{"lease.acquire_us_t128", "us", "lower", 0},
	{"lease.acquire_us_t1024", "us", "lower", 0},

	{"gcs.data_msgs_per_commit", "ratio", "lower", 0},
	{"gcs.ack_msgs_per_commit", "ratio", "lower", 0},
	{"gcs.order_msgs_per_commit", "ratio", "lower", 0},
	{"gcs.heartbeats_per_s", "1/s", "lower", 0},
	{"gcs.urb_round_us", "us", "lower", 0},
	{"gcs.oab_round_us", "us", "lower", 0},

	{"wire.bytes_per_commit", "B", "lower", 0},
	{"wire.encode_ns_per_msg", "ns", "lower", 0},
	{"wire.decode_ns_per_msg", "ns", "lower", 0},
	{"wire.client_frame_ns", "ns", "lower", 0},

	{"tcpnet.sends_per_commit", "ratio", "lower", 0},
	{"tcpnet.send_ns", "ns", "lower", 0},
	{"tcpnet.rtt_us", "us", "lower", 0},

	{"transport.mux_frames_per_commit", "ratio", "lower", 0},

	{"wal.records_per_commit", "ratio", "lower", 0},
	{"wal.bytes_per_commit", "B", "lower", 0},
	{"wal.fsyncs_per_commit", "ratio", "lower", 0},
	{"wal.fsync_us", "us", "lower", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.fsync_device_us", "us", "lower", 0},

	{"stm.stripe_contention_per_kcommit", "ratio", "lower", 0},
	{"stm.clock_waits_per_kcommit", "ratio", "lower", 0},
	{"stm.gc_runs", "count", "lower", 0},
	{"stm.boxes", "count", "lower", 0},
	{"stm.update_ns", "ns", "lower", 0},
	{"stm.ro_read_ns", "ns", "lower", 0},
	{"stm.apply_ns_per_ws", "ns", "lower", 0},

	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.alloc_bytes_per_op", "B", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"host.calib_ns", "ns", "lower", 0},

	{"trace.overhead_pct", "%", "lower", 0},
	{"loadgen.paced_p50_ms", "ms", "lower", 0},
	{"loadgen.paced_p99_ms", "ms", "lower", 0},
	{"loadgen.late_mean_us", "us", "lower", 0},
}

// metricValue is one printed measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and renders exactly the declared ones.
type metricSet map[string]float64

// render returns the declared metrics with their units. A declared metric
// nobody set reads 0; setting one nobody declared is a bug in the benchmark.
func (m metricSet) render(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is measured but not declared", name)
		}
	}
	return out, nil
}
