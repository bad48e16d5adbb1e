package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"github.com/alcstm/alc/internal/cluster"
	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/history"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/randseed"
	"github.com/alcstm/alc/internal/sortedset"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/trace"
	"github.com/alcstm/alc/internal/vacation"
)

// registerDurableValues registers the workload box types that have no wire
// codec (sorted-set nodes, vacation records): the WAL serializes box values
// to disk even when the transport is in-memory.
var registerValuesOnce sync.Once

func registerDurableValues() {
	registerValuesOnce.Do(func() {
		core.RegisterValue(0)
		core.RegisterValue(sortedset.RegisterValue())
		for _, v := range vacation.RegisterValues() {
			core.RegisterValue(v)
		}
	})
}

// Config parametrizes one simulation run. Only Seed is required.
type Config struct {
	// Seed is the schedule seed; the entire run is a deterministic expansion
	// of it (see Generate).
	Seed int64
	// Replicas is the cluster size. Default 3.
	Replicas int
	// Threads is the number of load threads per replica. Default 2.
	Threads int
	// Load is the duration of the load phase. Default 200ms.
	Load time.Duration
	// MaxRetries bounds re-executions per transaction so a run cannot hang
	// on livelock. Default 64.
	MaxRetries int
	// Shards partitions the conflict classes across this many independent
	// lease/broadcast groups (core.Config.Shards). The bank workloads
	// naturally produce cross-shard transfers, so a multi-group run
	// exercises the cross-shard certification commit under the same fault
	// schedules; the checker's verdict counts the cross-shard commits it
	// certified. Zero or one runs the classic single-group protocol.
	Shards int
	// Durable runs every replica with the durability tier enabled: each gets
	// a write-ahead log + snapshot directory under a run-private temp root,
	// and EventRestart recovers the victim from its own disk state before it
	// rejoins via delta state transfer. The history checker then certifies
	// the recorded commits ACROSS restarts, machine-checking recovery.
	Durable bool
	// Routed submits load through the locality-aware router (Cluster.Submit
	// with each transaction's declared item set) instead of pinning every
	// thread to its own replica, so the run exercises transaction migration,
	// affinity-map staleness, and re-routing across crashes and partitions.
	// Workloads that cannot declare item sets up front (sortedset, vacation)
	// fall back to origin execution even when Routed is set.
	Routed bool
	// Schedule, when non-nil, overrides the seed expansion: the run executes
	// exactly this fault timeline (Replicas is taken from the schedule). Used
	// by tests that need a specific scenario — e.g. an owner crash under
	// routed traffic — still certified by the history checker.
	Schedule *Schedule
	// Logf, when non-nil, receives verbose event tracing (schedule, failure
	// events, phase transitions) — the cmd/alc-sim replay surface.
	Logf func(format string, args ...any)
	// Tracer, when non-nil, receives every replica's protocol events
	// (transaction lifecycle, lease-manager transitions) in one shared ring.
	// When nil, Run creates a private tracer — the history recorder always
	// rides the unified trace stream. Diagnostics for debugging failing
	// seeds; events interleave across replicas in emission order.
	Tracer *trace.Tracer
}

func (c *Config) fillDefaults() {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Threads <= 0 {
		c.Threads = 2
	}
	if c.Load <= 0 {
		c.Load = 200 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 64
	}
}

// Result is the outcome of one simulation run.
type Result struct {
	Seed     int64
	Schedule *Schedule
	// Commits and Failures count acknowledged commits and terminal
	// transaction failures across the cluster; Invoked counts Atomic calls.
	Commits  int
	Failures int
	Invoked  int64
	// Migrated counts transactions that executed on a replica other than
	// their origin (nonzero only in Routed runs; counted across surviving
	// replicas at quiesce).
	Migrated int64
	// Verdict is the offline checker's judgement of the recorded history.
	Verdict history.Verdict
	// InvariantErr is a workload invariant violation observed at the witness
	// after convergence (nil when the invariant holds).
	InvariantErr error
	// Err is a harness-level failure (cluster construction, recovery or
	// convergence timeout): the run produced no meaningful verdict.
	Err error

	// checkerInput retains what was fed to the checker, for tests that
	// post-process the recorded history.
	checkerInput history.Input
}

// OK reports whether the run passed: harness healthy, invariant intact, and
// the history checker satisfied.
func (r *Result) OK() bool {
	return r.Err == nil && r.InvariantErr == nil && r.Verdict.OK()
}

// Summary is a one-line human-readable outcome.
func (r *Result) Summary() string {
	switch {
	case r.Err != nil:
		return fmt.Sprintf("seed=%d HARNESS ERROR: %v", r.Seed, r.Err)
	case r.InvariantErr != nil:
		return fmt.Sprintf("seed=%d INVARIANT VIOLATED: %v", r.Seed, r.InvariantErr)
	case !r.Verdict.OK():
		return fmt.Sprintf("seed=%d HISTORY VIOLATED: %s", r.Seed, r.Verdict)
	default:
		return fmt.Sprintf("seed=%d ok: %d commits, %d failures, %s",
			r.Seed, r.Commits, r.Failures, r.Verdict)
	}
}

// Run executes one simulation: expand the seed into a schedule, drive the
// cluster through it under load, quiesce, and check the recorded history.
func Run(cfg Config) *Result {
	cfg.fillDefaults()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := &Result{Seed: cfg.Seed}

	sched := cfg.Schedule
	if sched == nil {
		sched = Generate(cfg.Seed, cfg.Replicas, cfg.Load)
	} else {
		cfg.Replicas = sched.Replicas
		res.Seed = sched.Seed
	}
	res.Schedule = sched
	logf("schedule: %s", sched)

	w := newWorkload(sched, cfg.Threads)
	recorder := history.NewRecorder()
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = trace.New(trace.DefaultCapacity)
	}
	tracer.Attach(recorder)

	var durability core.DurabilityConfig
	if cfg.Durable {
		dir, derr := os.MkdirTemp("", "alc-sim-*")
		if derr != nil {
			res.Err = fmt.Errorf("sim: durable temp dir: %w", derr)
			return res
		}
		defer os.RemoveAll(dir)
		// Fsync off: memnet crashes are process-level (Close flushes), so the
		// run measures recovery logic, not disk latency.
		durability = core.DurabilityConfig{Dir: dir, Fsync: "off"}
		registerDurableValues()
	}

	c, err := cluster.New(cluster.Config{
		N:     cfg.Replicas,
		Route: cfg.Routed,
		Core: core.Config{
			Protocol: core.ProtocolALC,
			Shards:   cfg.Shards,
			// Automatic GC off: the checker needs full version histories at
			// the witness.
			GCEvery:    -1,
			MaxRetries: cfg.MaxRetries,
			Tracer:     tracer,
			Lease:      lease.Config{Tracer: tracer},
		},
		Net: memnet.Config{
			Latency: 200 * time.Microsecond,
			Seed:    sched.Seed,
		},
		GCS: gcs.Config{
			HeartbeatInterval: 10 * time.Millisecond,
			SuspectAfter:      100 * time.Millisecond,
			FlushTimeout:      250 * time.Millisecond,
			RetransmitAfter:   25 * time.Millisecond,
			Tick:              5 * time.Millisecond,
		},
		Seed:       w.seed(),
		Durability: durability,
	})
	if err != nil {
		res.Err = fmt.Errorf("sim: cluster start: %w", err)
		return res
	}
	defer c.Close()

	// Message faults go live only after the initial view, so every run
	// starts from a healthy cluster (the schedule stresses steady state, not
	// bootstrap).
	if sched.Faults.Active() {
		c.SetFaults(sched.Faults)
		logf("faults installed: drop=%.3f dup=%.3f delay=%.2f/%v",
			sched.Faults.Drop, sched.Faults.Duplicate, sched.Faults.Delay, sched.Faults.DelaySpike)
	}

	// Load phase: Threads committer goroutines per replica, each drawing a
	// deterministic op stream from a seed derived from (schedule, replica,
	// thread).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var loadErrMu sync.Mutex
	var loadErr error
	for ri := 0; ri < cfg.Replicas; ri++ {
		for ti := 0; ti < cfg.Threads; ti++ {
			wg.Add(1)
			go func(ri, ti int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(
					randseed.Derive(sched.Seed, fmt.Sprintf("load:%d:%d", ri, ti))))
				for round := 0; ; round++ {
					select {
					case <-stop:
						return
					default:
					}
					var err error
					if items := w.items(ri, ti); cfg.Routed && items != nil {
						// Routed: Submit migrates the transaction wherever the
						// affinity map points; a crashed origin's threads keep
						// flowing through the surviving replicas.
						err = c.Submit(ri, items, w.op(rng, ri, ti, round))
					} else {
						r := c.Replica(ri)
						if r == nil {
							time.Sleep(5 * time.Millisecond) // crashed: wait for restart
							continue
						}
						err = r.Atomic(w.op(rng, ri, ti, round))
					}
					switch {
					case err == nil:
					case errors.Is(err, core.ErrEjected),
						errors.Is(err, core.ErrStopped),
						errors.Is(err, core.ErrTooManyRetries):
						time.Sleep(5 * time.Millisecond)
					default:
						loadErrMu.Lock()
						if loadErr == nil {
							loadErr = fmt.Errorf("sim: replica %d thread %d round %d: %w", ri, ti, round, err)
						}
						loadErrMu.Unlock()
						return
					}
				}
			}(ri, ti)
		}
	}

	// Failure timeline.
	crashed := make(map[int]bool)
	start := time.Now()
	for _, e := range sched.Events {
		if wait := e.At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		switch e.Kind {
		case EventCrash:
			logf("t=%v crash %d", time.Since(start).Round(time.Millisecond), e.Victim)
			c.Crash(e.Victim)
			crashed[e.Victim] = true
		case EventRestart:
			logf("t=%v restart %d", time.Since(start).Round(time.Millisecond), e.Victim)
			if err := c.Restart(e.Victim); err != nil {
				res.Err = fmt.Errorf("sim: restart %d: %w", e.Victim, err)
				close(stop)
				wg.Wait()
				return res
			}
			delete(crashed, e.Victim)
		case EventPartition:
			logf("t=%v partition {%d} | rest", time.Since(start).Round(time.Millisecond), e.Victim)
			var rest []int
			for i := 0; i < cfg.Replicas; i++ {
				if i != e.Victim {
					rest = append(rest, i)
				}
			}
			c.Partition([]int{e.Victim}, rest)
		case EventHeal:
			logf("t=%v heal", time.Since(start).Round(time.Millisecond))
			c.Heal()
		}
	}
	if wait := cfg.Load - time.Since(start); wait > 0 {
		time.Sleep(wait)
	}

	// Quiesce: faults off, partitions healed, everyone restarted, load
	// stopped, full membership restored, stores converged.
	logf("t=%v quiesce", time.Since(start).Round(time.Millisecond))
	c.SetFaults(memnet.Faults{})
	c.Heal()
	for victim := range crashed {
		if err := c.Restart(victim); err != nil {
			res.Err = fmt.Errorf("sim: final restart %d: %w", victim, err)
			close(stop)
			wg.Wait()
			return res
		}
	}
	close(stop)
	wg.Wait()
	if loadErr != nil {
		res.Err = loadErr
		return res
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		allIn := true
		for i := 0; i < cfg.Replicas; i++ {
			if r := c.Replica(i); r == nil || !r.InPrimary() {
				allIn = false
			}
		}
		if allIn {
			break
		}
		if time.Now().After(deadline) {
			res.Err = errors.New("sim: cluster never recovered full membership")
			return res
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.WaitConverged(30 * time.Second); err != nil {
		res.Err = fmt.Errorf("sim: %w", err)
		return res
	}

	// Collect and check.
	res.Migrated = c.TotalStats().MigratedIn
	res.Commits = len(recorder.Commits())
	res.Failures = len(recorder.Failures())
	res.Invoked = recorder.Invoked()
	in := history.Input{
		Commits:     recorder.Commits(),
		Orders:      c.VersionOrders(),
		FullHistory: c.FullHistoryReplicas(),
	}
	if cfg.Shards > 1 {
		mapper := lease.Mapper{} // sim runs use the default per-item mapper
		shards := cfg.Shards
		in.ShardOf = func(box string) int { return lease.ShardOf(mapper.ClassOf(box), shards) }
	}
	res.checkerInput = in
	res.Verdict = history.Check(in)
	logf("verdict: %s", res.Verdict)

	witness := c.Replica(sched.Witness())
	if witness == nil {
		res.Err = errors.New("sim: witness replica missing after quiesce")
		return res
	}
	if err := witness.AtomicRO(func(tx *stm.Txn) error { return w.check(tx) }); err != nil {
		res.InvariantErr = err
	}
	return res
}
