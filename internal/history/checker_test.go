package history

import (
	"strings"
	"testing"

	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/trace"
	"github.com/alcstm/alc/internal/transport"
)

func tid(replica transport.ID, seq uint64) stm.TxnID {
	return stm.TxnID{Replica: replica, Seq: seq}
}

func commit(id stm.TxnID, rs stm.ReadSet, ws stm.WriteSet) core.TxnReport {
	return core.TxnReport{ID: id, RS: rs, WS: ws, Protocol: core.ProtocolALC}
}

func read(box string, w stm.TxnID) stm.ReadEntry { return stm.ReadEntry{Box: box, Writer: w} }
func write(box string) stm.WriteEntry            { return stm.WriteEntry{Box: box, Value: 1} }
func orders(m map[string][]stm.TxnID) map[transport.ID]map[string][]stm.TxnID {
	return map[transport.ID]map[string][]stm.TxnID{0: m}
}

// A serial transfer history: T1 reads a,b and writes both; T2 reads T1's
// versions and writes both again. Serializable, complete, shelter-clean.
func TestCheckCleanHistory(t *testing.T) {
	t1, t2 := tid(0, 1), tid(1, 1)
	zero := stm.TxnID{}
	in := Input{
		Commits: []core.TxnReport{
			commit(t1, stm.ReadSet{read("a", zero), read("b", zero)}, stm.WriteSet{write("a"), write("b")}),
			commit(t2, stm.ReadSet{read("a", t1), read("b", t1)}, stm.WriteSet{write("a"), write("b")}),
		},
		Orders: orders(map[string][]stm.TxnID{
			"a": {zero, t1, t2},
			"b": {zero, t1, t2},
		}),
		FullHistory: []transport.ID{0},
	}
	v := Check(in)
	if !v.OK() {
		t.Fatalf("clean history rejected:\n%s", v)
	}
	if v.Commits != 2 || v.Boxes != 2 {
		t.Fatalf("stats: got %d commits %d boxes, want 2 and 2", v.Commits, v.Boxes)
	}
}

// The canonical lost update: T1 and T2 both read the initial version of b and
// both overwrite it. Whatever order the writes install in, one update is
// lost; the serialization graph has the cycle ww(T1->T2) + rw(T2->T1).
func TestCheckDetectsLostUpdate(t *testing.T) {
	t1, t2 := tid(0, 1), tid(1, 1)
	zero := stm.TxnID{}
	in := Input{
		Commits: []core.TxnReport{
			commit(t1, stm.ReadSet{read("b", zero)}, stm.WriteSet{write("b")}),
			commit(t2, stm.ReadSet{read("b", zero)}, stm.WriteSet{write("b")}),
		},
		Orders:      orders(map[string][]stm.TxnID{"b": {zero, t1, t2}}),
		FullHistory: []transport.ID{0},
	}
	v := Check(in)
	if v.OK() {
		t.Fatal("lost update not detected")
	}
	found := false
	for _, viol := range v.Violations {
		if strings.Contains(viol, "not one-copy serializable") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a serialization-cycle violation, got:\n%s", v)
	}
}

// The lost first increment: T1 and T2 both found b absent — a read of its
// initial version — and both created it. The order holds no initial entry
// (the box was created by a write-set), yet the anti-dependency T2 -> T1
// closes the cycle with ww(T1->T2).
func TestCheckDetectsLostFirstIncrement(t *testing.T) {
	t1, t2 := tid(0, 1), tid(1, 1)
	zero := stm.TxnID{}
	in := Input{
		Commits: []core.TxnReport{
			commit(t1, stm.ReadSet{read("b", zero)}, stm.WriteSet{write("b")}),
			commit(t2, stm.ReadSet{read("b", zero)}, stm.WriteSet{write("b")}),
		},
		Orders:      orders(map[string][]stm.TxnID{"b": {t1, t2}}),
		FullHistory: []transport.ID{0},
	}
	if v := Check(in); v.OK() {
		t.Fatal("lost first increment not detected")
	}
}

// Write skew across two boxes: T1 reads a,b writes a; T2 reads a,b writes b.
// Snapshot-isolation anomalies must also be caught (rw edges both ways).
func TestCheckDetectsWriteSkew(t *testing.T) {
	t1, t2 := tid(0, 1), tid(1, 1)
	zero := stm.TxnID{}
	in := Input{
		Commits: []core.TxnReport{
			commit(t1, stm.ReadSet{read("a", zero), read("b", zero)}, stm.WriteSet{write("a")}),
			commit(t2, stm.ReadSet{read("a", zero), read("b", zero)}, stm.WriteSet{write("b")}),
		},
		Orders: orders(map[string][]stm.TxnID{
			"a": {zero, t1},
			"b": {zero, t2},
		}),
		FullHistory: []transport.ID{0},
	}
	v := Check(in)
	if v.OK() {
		t.Fatal("write skew not detected")
	}
}

func TestCheckDetectsLostWrite(t *testing.T) {
	t1 := tid(0, 1)
	zero := stm.TxnID{}
	in := Input{
		Commits: []core.TxnReport{
			commit(t1, stm.ReadSet{read("a", zero)}, stm.WriteSet{write("a"), write("gone")}),
		},
		Orders: orders(map[string][]stm.TxnID{
			"a": {zero, t1},
			// box "gone" has no version for t1: the committed write vanished.
			"gone": {zero},
		}),
		FullHistory: []transport.ID{0},
	}
	v := Check(in)
	if v.OK() {
		t.Fatal("lost committed write not detected")
	}
	found := false
	for _, viol := range v.Violations {
		if strings.Contains(viol, "committed write lost") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a committed-write-lost violation, got:\n%s", v)
	}
}

func TestCheckDetectsWitnessDivergence(t *testing.T) {
	t1, t2 := tid(0, 1), tid(1, 1)
	zero := stm.TxnID{}
	in := Input{
		Orders: map[transport.ID]map[string][]stm.TxnID{
			0: {"a": {zero, t1, t2}},
			1: {"a": {zero, t2, t1}},
		},
		FullHistory: []transport.ID{0, 1},
	}
	v := Check(in)
	if v.OK() {
		t.Fatal("witness version-order divergence not detected")
	}
}

// A restored replica legally holds a suffix of the reference order; anything
// else is divergence.
func TestCheckSuffixConsistency(t *testing.T) {
	t1, t2, t3 := tid(0, 1), tid(0, 2), tid(0, 3)
	zero := stm.TxnID{}
	ok := Input{
		Orders: map[transport.ID]map[string][]stm.TxnID{
			0: {"a": {zero, t1, t2, t3}},
			1: {"a": {t2, t3}}, // restored after t2, then applied t3
		},
		FullHistory: []transport.ID{0},
	}
	if v := Check(ok); !v.OK() {
		t.Fatalf("legal suffix rejected:\n%s", v)
	}
	bad := Input{
		Orders: map[transport.ID]map[string][]stm.TxnID{
			0: {"a": {zero, t1, t2, t3}},
			1: {"a": {t2, t1}}, // not a suffix: divergent
		},
		FullHistory: []transport.ID{0},
	}
	if v := Check(bad); v.OK() {
		t.Fatal("non-suffix order not detected")
	}
}

func TestCheckShelterViolation(t *testing.T) {
	rep := commit(tid(0, 1), nil, stm.WriteSet{write("a")})
	rep.RemoteShelteredAborts = 1
	in := Input{
		Commits:     []core.TxnReport{rep},
		Orders:      orders(map[string][]stm.TxnID{"a": {rep.ID}}),
		FullHistory: []transport.ID{0},
	}
	v := Check(in)
	if v.OK() {
		t.Fatal("sheltered remote abort not flagged")
	}
	if !strings.Contains(v.Violations[0], "lease shelter") {
		t.Fatalf("wrong violation: %s", v.Violations[0])
	}
}

func TestCheckDuplicateApply(t *testing.T) {
	t1 := tid(0, 1)
	zero := stm.TxnID{}
	in := Input{
		Commits:     []core.TxnReport{commit(t1, nil, stm.WriteSet{write("a")})},
		Orders:      orders(map[string][]stm.TxnID{"a": {zero, t1, t1}}),
		FullHistory: []transport.ID{0},
	}
	if v := Check(in); v.OK() {
		t.Fatal("duplicate write application not detected")
	}
}

// Writers without commit reports (crashed before acknowledgement) are graph
// nodes, not violations.
func TestCheckToleratesUnrecordedWriters(t *testing.T) {
	t1, ghost := tid(0, 1), tid(2, 9)
	zero := stm.TxnID{}
	in := Input{
		Commits: []core.TxnReport{
			commit(t1, stm.ReadSet{read("a", zero)}, stm.WriteSet{write("a")}),
		},
		Orders:      orders(map[string][]stm.TxnID{"a": {zero, t1, ghost}}),
		FullHistory: []transport.ID{0},
	}
	v := Check(in)
	if !v.OK() {
		t.Fatalf("unacknowledged writer treated as violation:\n%s", v)
	}
	if v.UnrecordedWriters != 1 {
		t.Fatalf("UnrecordedWriters = %d, want 1", v.UnrecordedWriters)
	}
}

// Without a full-history witness the checker must degrade to notes, not
// false violations.
func TestCheckNoWitnessDegrades(t *testing.T) {
	t1, t2 := tid(0, 1), tid(0, 2)
	in := Input{
		Commits: []core.TxnReport{commit(t1, nil, stm.WriteSet{write("a")})},
		Orders: map[transport.ID]map[string][]stm.TxnID{
			0: {"a": {t2}}, // truncated: t1 fell off in a restore
		},
	}
	v := Check(in)
	if !v.OK() {
		t.Fatalf("degraded check produced violations:\n%s", v)
	}
	if len(v.Notes) == 0 {
		t.Fatal("expected degradation notes")
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	r.TraceEvent(trace.Event{Kind: trace.KindTxnInvoked, Replica: 1})
	r.TraceEvent(trace.Event{Kind: trace.KindTxnInvoked, Replica: 2})
	r.TraceEvent(trace.Event{Kind: trace.KindTxnCommitted, Payload: core.TxnReport{ID: tid(1, 1)}})
	r.TraceEvent(trace.Event{Kind: trace.KindTxnFailed, Replica: 2, Msg: "boom"})
	r.TraceEvent(trace.Event{Kind: trace.KindLease, Msg: "ignored by the recorder"})
	if got := r.Invoked(); got != 2 {
		t.Fatalf("Invoked = %d, want 2", got)
	}
	if c := r.Commits(); len(c) != 1 || c[0].ID != tid(1, 1) {
		t.Fatalf("Commits = %v", c)
	}
	if f := r.Failures(); len(f) != 1 || f[0].Err != "boom" {
		t.Fatalf("Failures = %v", f)
	}
}
