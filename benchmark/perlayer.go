package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"github.com/alcstm/alc/internal/clientsrv"
	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/metrics"
)

// snapshot is the state of the public counters the program already keeps at
// one edge of the traced window. The decorators' own counters need none:
// they only count while the tracer is on, which is the traced window.
type snapshot struct {
	at       time.Time
	replicas []core.Stats
	servers  []clientsrv.Stats
	mem      runtime.MemStats
}

func takeSnapshot(c *cluster) *snapshot {
	s := &snapshot{at: time.Now()}
	for _, r := range c.replicas {
		s.replicas = append(s.replicas, r.Stats())
	}
	for _, srv := range c.servers {
		s.servers = append(s.servers, srv.Stats())
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerFromDeltas fills in the per-layer metrics that are differences of
// counters over the traced window (a to b; t counted over the same). "Per commit" divides by the update
// transactions committed in the window, summed over the replicas.
func perLayerFromDeltas(m metricSet, a, b *snapshot, t *tracer, traced windowStats) {
	// sum adds up, over the replicas, the growth of one counter.
	sum := func(f func(core.Stats) int64) float64 {
		var d int64
		for i := range b.replicas {
			d += f(b.replicas[i]) - f(a.replicas[i])
		}
		return float64(d)
	}
	// meanUs is the mean of the observations a latency histogram gained.
	meanUs := func(f func(core.Stats) metrics.HistogramSnapshot) float64 {
		var sumNs, n int64
		for i := range b.replicas {
			hb, ha := f(b.replicas[i]), f(a.replicas[i])
			sumNs += int64(hb.Sum() - ha.Sum())
			n += hb.Count() - ha.Count()
		}
		return ratio(float64(sumNs)/1e3, float64(n))
	}

	commits := sum(func(s core.Stats) int64 { return s.Commits })
	perCommit := func(v float64) float64 { return ratio(v, commits) }
	ops := float64(traced.Samples)
	seconds := b.at.Sub(a.at).Seconds()
	count := func(c *atomic.Int64) float64 { return float64(c.Load()) }

	if len(b.servers) > 0 {
		var admitted, shed int64
		for i := range b.servers {
			admitted += b.servers[i].Admitted - a.servers[i].Admitted
			shed += b.servers[i].Shed - a.servers[i].Shed
		}
		m["clientsrv.admitted"] = float64(admitted)
		m["clientsrv.shed"] = float64(shed)
		// What a request costs outside the backend: client framing, two
		// socket hops, the server's read loop and its worker hand-off.
		m["clientsrv.turn_us"] = (ratio(count(&t.opNs), count(&t.opCalls)) - ratio(count(&t.execNs), count(&t.execCalls))) / 1e3
	}

	m["core.stage_exec_us"] = meanUs(func(s core.Stats) metrics.HistogramSnapshot { return s.Stages.Execution })
	m["core.stage_lease_wait_us"] = meanUs(func(s core.Stats) metrics.HistogramSnapshot { return s.Stages.LeaseWait })
	m["core.stage_cert_us"] = meanUs(func(s core.Stats) metrics.HistogramSnapshot { return s.Stages.Certification })
	m["core.stage_coalescer_us"] = meanUs(func(s core.Stats) metrics.HistogramSnapshot { return s.Stages.Coalescer })
	m["core.stage_urb_us"] = meanUs(func(s core.Stats) metrics.HistogramSnapshot { return s.Stages.URB })
	m["core.stage_apply_us"] = meanUs(func(s core.Stats) metrics.HistogramSnapshot { return s.Stages.Apply })
	m["core.commit_us"] = meanUs(func(s core.Stats) metrics.HistogramSnapshot { return s.CommitLatency })
	m["core.aborts_per_commit"] = perCommit(sum(func(s core.Stats) int64 { return s.Aborts }))
	m["core.batch_mean_txns"] = ratio(sum(func(s core.Stats) int64 { return s.Batch.BatchedTxns }),
		sum(func(s core.Stats) int64 { return s.Batch.Batches }))
	m["core.cross_commit_share"] = perCommit(sum(func(s core.Stats) int64 { return s.CrossCommits }))

	reused := sum(func(s core.Stats) int64 { return s.Lease.Reused })
	acquired := sum(func(s core.Stats) int64 { return s.Lease.Acquired })
	m["lease.reuse_ratio"] = ratio(reused, reused+acquired)
	m["lease.acquired_per_commit"] = perCommit(acquired)
	m["lease.stolen_per_commit"] = perCommit(sum(func(s core.Stats) int64 { return s.Lease.Stolen }))
	m["lease.freed_per_commit"] = perCommit(sum(func(s core.Stats) int64 { return s.Lease.Freed }))

	m["gcs.data_msgs_per_commit"] = perCommit(count(&t.sends[msgData]))
	m["gcs.ack_msgs_per_commit"] = perCommit(count(&t.sends[msgAck]))
	m["gcs.order_msgs_per_commit"] = perCommit(count(&t.sends[msgOrder]))
	m["gcs.heartbeats_per_s"] = ratio(count(&t.sends[msgHeartbeat]), seconds)

	frames, sampled := count(&t.frames), count(&t.sampled)
	m["wire.bytes_per_commit"] = perCommit(ratio(count(&t.encBytes), sampled) * frames)
	m["wire.encode_ns_per_msg"] = ratio(count(&t.encNs), sampled)
	m["wire.decode_ns_per_msg"] = ratio(count(&t.decNs), sampled)
	m["tcpnet.sends_per_commit"] = perCommit(frames)
	m["tcpnet.send_ns"] = ratio(count(&t.sendNs), frames)
	m["transport.mux_frames_per_commit"] = perCommit(count(&t.muxFrames))

	if b.replicas[0].WAL.Enabled {
		fsyncs := sum(func(s core.Stats) int64 { return s.WAL.FsyncLatency.Count() })
		m["wal.records_per_commit"] = perCommit(sum(func(s core.Stats) int64 { return s.WAL.Records }))
		m["wal.bytes_per_commit"] = perCommit(sum(func(s core.Stats) int64 { return s.WAL.AppendedBytes }))
		m["wal.fsyncs_per_commit"] = perCommit(fsyncs)
		m["wal.fsync_us"] = meanUs(func(s core.Stats) metrics.HistogramSnapshot { return s.WAL.FsyncLatency })
	}

	kcommits := commits / 1000
	m["stm.stripe_contention_per_kcommit"] = ratio(sum(func(s core.Stats) int64 { return s.STM.StripeContention }), kcommits)
	m["stm.clock_waits_per_kcommit"] = ratio(sum(func(s core.Stats) int64 { return s.STM.ClockWaits }), kcommits)
	m["stm.gc_runs"] = sum(func(s core.Stats) int64 { return s.STM.GCRuns })
	m["stm.boxes"] = float64(b.replicas[0].STM.Boxes)

	m["proc.allocs_per_op"] = ratio(float64(b.mem.Mallocs-a.mem.Mallocs), ops)
	m["proc.alloc_bytes_per_op"] = ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), ops)
	m["proc.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
}
