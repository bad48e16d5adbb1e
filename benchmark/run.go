package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

const (
	setupRuns = 3               // set-ups per run; setup_s uses their median
	warmup    = 2 * time.Second // full load before the window, part of setup_s
	// refWindow: the traced run measures an untraced window of this length
	// before and after the traced one; tracing overhead is taken against
	// their mean, so a host that drifts steadily does not pass for overhead.
	refWindow = 1500 * time.Millisecond
)

// options are one run's inputs.
type options struct {
	workload *workload
	seed     int64
	window   time.Duration
	warmup   time.Duration
	trace    bool
	out      string // span file; "" picks the default under benchmark/out
}

// report is everything one run measured; the contract line printed last is
// cut from it.
type report struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Env      env    `json:"env"`

	SetupRunsS []float64 `json:"setup_runs_s"`
	WarmupS    float64   `json:"warmup_s"`

	Window     windowStats   `json:"window"`
	Reference  []windowStats `json:"untraced_reference_windows,omitempty"`
	Invariants *invariants   `json:"invariants"`
	// AfterProbe is verification repeated after the open-loop probe; its
	// counts include the closed loop's.
	AfterProbe *invariants `json:"invariants_after_open_loop_probe,omitempty"`

	SpanFile     string `json:"span_file,omitempty"`
	Spans        int    `json:"spans,omitempty"`
	SpansDropped int64  `json:"spans_dropped,omitempty"`
	// NotMeasured names the per-layer metrics that read 0 because they do
	// not apply to this workload or their driver runs with another one.
	NotMeasured []string `json:"not_measured,omitempty"`

	Metrics map[string]metricValue `json:"metrics"`
}

// env records what the numbers depend on besides the code.
type env struct {
	NProc           int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	GoVersion       string `json:"go_version"`
	Callers         int    `json:"callers"`
	Replicas        int    `json:"replicas"`
	InjectedDelayMs int    `json:"injected_delay_ms"`
	LatencyNote     string `json:"latency_note"`
	WALFilesystem   string `json:"wal_filesystem,omitempty"`
}

func currentEnv() env {
	return env{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Callers:     numCallers,
		Replicas:    numReplicas,
		LatencyNote: "loopback TCP, no injected delay: latency is processor and kernel time only",
	}
}

// runWorkload does one run: set-up (several times), warm-up, the measured
// window, verification and, when tracing, the per-layer work.
func runWorkload(o options) (*report, error) {
	w := o.workload
	rep := &report{Workload: w.name, Why: w.why, Seed: o.seed, Traced: o.trace, Env: currentEnv()}
	registerWire()

	var t *tracer
	layer := metricSet{}
	if o.trace {
		t = newTracer()
		layer["host.calib_ns"] = calibrate()
	}

	var (
		c *cluster
		l *load
	)
	for i := 0; i < setupRuns; i++ {
		began := time.Now()
		var err error
		if c, err = newCluster(w, t); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		l = newLoad(c, o.seed, t)
		if err := l.pretouch(); err != nil {
			l.close()
			c.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.SetupRunsS = append(rep.SetupRunsS, time.Since(began).Seconds())
		if i < setupRuns-1 {
			_, _, _ = settle(c) // untimed: only so that close finds nothing in flight
			l.close()
			c.close()
		}
	}
	defer c.close()
	defer l.close()
	if w.durable {
		rep.Env.WALFilesystem = fsType(c.walDir)
	}

	began := time.Now()
	l.start()
	time.Sleep(o.warmup)
	rep.WarmupS = time.Since(began).Seconds()

	var win *window
	if o.trace {
		refBefore := l.measure(min(refWindow, o.window))
		before := takeSnapshot(c)
		t.on.Store(true)
		win = l.measure(o.window)
		t.on.Store(false)
		after := takeSnapshot(c)
		refAfter := l.measure(min(refWindow, o.window))
		l.halt()
		rep.Reference = []windowStats{refBefore.stats(), refAfter.stats()}
		rep.Window = win.stats()
		perLayerFromDeltas(layer, before, after, t, rep.Window)
		untraced := (rep.Reference[0].ThroughputOpsS + rep.Reference[1].ThroughputOpsS) / 2
		layer["trace.overhead_pct"] = 100 * (1 - ratio(rep.Window.ThroughputOpsS, untraced))
	} else {
		win = l.measure(o.window)
		l.halt()
		rep.Window = win.stats()
	}

	var err error
	if rep.Invariants, err = verify(l); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}

	if !o.trace {
		e2e := metricSet{
			"setup_s":          median(rep.SetupRunsS) + rep.WarmupS,
			"throughput_ops_s": rep.Window.ThroughputOpsS,
			"closed_p50_ms":    rep.Window.P50Ms,
			"closed_p95_ms":    rep.Window.P95Ms,
			"cpu_us_per_op":    rep.Window.CPUUsPerOp,
			"peak_rss_mb":      peakRSSMB(),
		}
		rep.Metrics, err = e2e.render(endToEnd)
		return rep, err
	}

	layer["core.lost_acked_writes"] = float64(rep.Invariants.LostAckedWrites)
	if w.openLoopProbe {
		// The probe's requests overlap on a replica, which the closed loop
		// never does and which is where ROADMAP P0 loses commits; what it
		// loses is counted, but the verdict above is the closed loop's.
		openLoopProbe(l, o.seed, layer)
		if rep.AfterProbe, err = verify(l); err != nil {
			return nil, fmt.Errorf("verify after probe: %w", err)
		}
		layer["core.lost_acked_writes"] = float64(rep.AfterProbe.LostAckedWrites)
	}
	// The drivers time one layer alone: the cluster and its garbage go first.
	l.close()
	c.close()
	runtime.GC()
	for _, driver := range w.drivers {
		if err := driver(layer); err != nil {
			return nil, fmt.Errorf("layer drivers: %w", err)
		}
	}
	for _, d := range perLayer {
		if _, ok := layer[d.Name]; !ok {
			rep.NotMeasured = append(rep.NotMeasured, d.Name)
		}
	}
	if rep.Metrics, err = layer.render(perLayer); err != nil {
		return nil, err
	}

	rep.SpanFile = o.out
	if rep.SpanFile == "" {
		rep.SpanFile = "benchmark/out/" + w.name + ".trace.jsonl"
	}
	rep.Spans, rep.SpansDropped = len(t.spans), t.dropped
	if err := t.writeSpans(rep.SpanFile); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: warning:", err)
	}
	return rep, nil
}
