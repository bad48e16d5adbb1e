package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/clientsrv"
	"github.com/alcstm/alc/internal/core"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// BENCHMARK.json and the tables in metrics.go and workload.go must say the
// same thing, in the same order.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, defined %s: %s", i, d.Workloads[i], w.name, w.why)
		}
	}
	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d defined", len(d.EndToEnd), len(endToEnd))
	}
	setupBound, maxBound := 0.0, 0.0
	for i, m := range endToEnd {
		if g := d.EndToEnd[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end %d: declared %+v, defined %+v", i, g, m)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound || maxBound > 0.25 {
		t.Errorf("setup_s must be declared with the largest bound, none above 0.25 (setup %v, max %v)", setupBound, maxBound)
	}
	if len(d.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d defined", len(d.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range perLayer {
		if g := d.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer %d: declared %+v, defined %+v", i, g, m)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
}

func names(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// One short run of lease-local, in-process: the result must be correct,
// nothing may fail, and the printed metrics are exactly the declared
// end-to-end ones, none of them zero.
func TestSmokeLeaseLocal(t *testing.T) {
	rep, err := runWorkload(options{
		workload: workloadByName("lease-local"), seed: 1,
		window: 300 * time.Millisecond, warmup: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.result()
	if !res.Correct || res.Failed != 0 || res.Attempted < 100 {
		t.Errorf("correct=%t attempted=%d failed=%d invariants=%+v", res.Correct, res.Attempted, res.Failed, rep.Invariants)
	}
	if rep.Invariants.AckedWrites < int64(numCallers*privateKeys)+res.Attempted {
		t.Errorf("verification covered %d acknowledged writes, fewer than the %d pre-touches plus %d measured operations",
			rep.Invariants.AckedWrites, numCallers*privateKeys, res.Attempted)
	}
	d := readDeclared(t)
	var want []string
	for _, m := range d.EndToEnd {
		want = append(want, m.Name)
	}
	sort.Strings(want)
	got := names(res.Metrics)
	if len(got) != len(want) {
		t.Fatalf("printed %v, declared %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("printed %v, declared %v", got, want)
		}
		if res.Metrics[got[i]].Value <= 0 {
			t.Errorf("%s = %v, want above 0", got[i], res.Metrics[got[i]].Value)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
		t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", keys)
	}
}

// Everything the traced run derives from counter deltas must be a declared
// per-layer metric, and what render prints is exactly the declared set.
func TestPerLayerNamesAreDeclared(t *testing.T) {
	snap := func() *snapshot {
		s := &snapshot{at: time.Now(), replicas: make([]core.Stats, numReplicas), servers: make([]clientsrv.Stats, numReplicas)}
		for i := range s.replicas {
			s.replicas[i].WAL.Enabled = true
		}
		return s
	}
	m := metricSet{"host.calib_ns": 1, "core.lost_acked_writes": 0, "trace.overhead_pct": 0}
	perLayerFromDeltas(m, snap(), snap(), newTracer(), windowStats{})
	for _, driver := range []func(metricSet) error{wireDriver, clientsrvDriver} {
		if err := driver(m); err != nil {
			t.Fatal(err)
		}
	}
	out, err := m.render(perLayer)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(perLayer) {
		t.Errorf("rendered %d metrics, declared %d", len(out), len(perLayer))
	}
	if _, err := (metricSet{"no.such_metric": 1}).render(perLayer); err == nil {
		t.Error("an undeclared metric was rendered without complaint")
	}
	if out["wire.client_frame_ns"].Value <= 0 || out["clientsrv.ping_us"].Value <= 0 {
		t.Errorf("drivers measured nothing: %+v %+v", out["wire.client_frame_ns"], out["clientsrv.ping_us"])
	}
}
