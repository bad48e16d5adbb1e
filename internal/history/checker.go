package history

import (
	"fmt"
	"sort"
	"strings"

	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/transport"
)

// Input is everything the offline checker consumes after a run has quiesced.
type Input struct {
	// Commits are the acknowledged commits collected by the Recorder.
	Commits []core.TxnReport
	// Orders holds, per replica and per box, the writer IDs of the box's
	// retained versions, oldest first (stm.Store.VersionWriters). Collect
	// them after the cluster has converged and with automatic GC disabled,
	// or the orders are truncated prefixes.
	Orders map[transport.ID]map[string][]stm.TxnID
	// FullHistory lists the replicas whose stores hold complete version
	// histories: never state-transfer-restored (stm.Store.Restores() == 0)
	// and never GC'd. At least one such witness makes the write-loss and
	// serialization-graph checks exact; with none they degrade to
	// suffix-consistency and the Verdict notes it.
	FullHistory []transport.ID
}

// Verdict is the checker's result. Violations are correctness failures;
// Notes record checks that were skipped or weakened by the available
// evidence (for example: no full-history witness).
type Verdict struct {
	Violations []string
	Notes      []string

	// Commits is the number of acknowledged commits checked; Boxes the
	// number of distinct boxes with a version order; UnrecordedWriters the
	// number of writer IDs present in version orders without a matching
	// commit report (transactions whose executing replica crashed before the
	// commit was acknowledged — legal, they appear as graph nodes without
	// read-sets).
	Commits           int
	Boxes             int
	UnrecordedWriters int
}

// OK reports whether the history passed every check.
func (v Verdict) OK() bool { return len(v.Violations) == 0 }

func (v Verdict) String() string {
	var b strings.Builder
	if v.OK() {
		fmt.Fprintf(&b, "history OK: %d commits, %d boxes, %d unrecorded writers",
			v.Commits, v.Boxes, v.UnrecordedWriters)
	} else {
		fmt.Fprintf(&b, "history VIOLATED (%d commits, %d boxes):", v.Commits, v.Boxes)
		for _, viol := range v.Violations {
			fmt.Fprintf(&b, "\n  violation: %s", viol)
		}
	}
	for _, n := range v.Notes {
		fmt.Fprintf(&b, "\n  note: %s", n)
	}
	return b.String()
}

func (v *Verdict) violatef(format string, args ...any) {
	v.Violations = append(v.Violations, fmt.Sprintf(format, args...))
}

func (v *Verdict) notef(format string, args ...any) {
	v.Notes = append(v.Notes, fmt.Sprintf(format, args...))
}

// Check validates the recorded history. It verifies, in order:
//
//   - the §4 lease-shelter invariant (RemoteShelteredAborts == 0 on every
//     commit, ALC only);
//   - transaction IDs are unique among acknowledged commits;
//   - all replicas agree on every box's version order (full-history
//     witnesses must match exactly; restored replicas must hold a suffix);
//   - no acknowledged committed write was lost or applied twice;
//   - one-copy serializability: the direct serialization graph over the
//     merged version orders and the commits' read-sets is acyclic.
func Check(in Input) Verdict {
	var v Verdict
	v.Commits = len(in.Commits)

	checkShelter(in, &v)
	checkUniqueIDs(in, &v)
	ref := mergeOrders(in, &v)
	v.Boxes = len(ref)
	checkCompleteness(in, ref, &v)
	checkSerializability(in, ref, &v)
	return v
}

func checkShelter(in Input, v *Verdict) {
	for _, c := range in.Commits {
		if c.RemoteShelteredAborts > 0 {
			v.violatef("lease shelter: %v suffered %d remote abort(s) while holding an established lease",
				c.ID, c.RemoteShelteredAborts)
		}
	}
}

func checkUniqueIDs(in Input, v *Verdict) {
	seen := make(map[stm.TxnID]int, len(in.Commits))
	for _, c := range in.Commits {
		seen[c.ID]++
	}
	for id, n := range seen {
		if n > 1 {
			v.violatef("duplicate commit acknowledgement: %v acknowledged %d times", id, n)
		}
	}
}

// mergeOrders reconciles the per-replica version orders into one reference
// order per box, recording disagreements as violations.
func mergeOrders(in Input, v *Verdict) map[string][]stm.TxnID {
	full := make([]transport.ID, 0, len(in.FullHistory))
	for _, id := range in.FullHistory {
		if _, ok := in.Orders[id]; ok {
			full = append(full, id)
		}
	}
	sort.Slice(full, func(i, j int) bool { return full[i] < full[j] })

	ref := make(map[string][]stm.TxnID)
	if len(full) > 0 {
		// Reference = the first witness; every other witness must match it
		// exactly, box for box.
		for box, order := range in.Orders[full[0]] {
			ref[box] = order
		}
		for _, id := range full[1:] {
			diffOrders(ref, in.Orders[id], full[0], id, v)
		}
	} else {
		v.notef("no full-history replica: write-loss and version-order checks degraded to suffix consistency")
		// Reference = the longest order seen for each box.
		for _, orders := range in.Orders {
			for box, order := range orders {
				if len(order) > len(ref[box]) {
					ref[box] = order
				}
			}
		}
	}

	// Every remaining replica (restored ones, and all of them in the
	// no-witness case) must hold a suffix of the reference: state transfer
	// collapses the history to the then-current head, after which the
	// replica appends the same writes in the same order as everyone else.
	fullSet := make(map[transport.ID]bool, len(full))
	for _, id := range full {
		fullSet[id] = true
	}
	replicas := make([]transport.ID, 0, len(in.Orders))
	for id := range in.Orders {
		if !fullSet[id] {
			replicas = append(replicas, id)
		}
	}
	sort.Slice(replicas, func(i, j int) bool { return replicas[i] < replicas[j] })
	for _, id := range replicas {
		for box, order := range in.Orders[id] {
			if !isSuffix(order, ref[box]) {
				v.violatef("version order divergence: replica %d box %q order %v is not a suffix of reference %v",
					id, box, order, ref[box])
			}
		}
	}
	return ref
}

// diffOrders reports any box where two full-history witnesses disagree.
func diffOrders(ref map[string][]stm.TxnID, other map[string][]stm.TxnID, refID, otherID transport.ID, v *Verdict) {
	boxes := make(map[string]bool, len(ref)+len(other))
	for box := range ref {
		boxes[box] = true
	}
	for box := range other {
		boxes[box] = true
	}
	for box := range boxes {
		a, b := ref[box], other[box]
		if len(a) != len(b) {
			v.violatef("version order divergence: witnesses %d and %d disagree on box %q: %v vs %v",
				refID, otherID, box, a, b)
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				v.violatef("version order divergence: witnesses %d and %d disagree on box %q at position %d: %v vs %v",
					refID, otherID, box, i, a, b)
				break
			}
		}
	}
}

func isSuffix(suffix, full []stm.TxnID) bool {
	if len(suffix) > len(full) {
		return false
	}
	off := len(full) - len(suffix)
	for i, id := range suffix {
		if full[off+i] != id {
			return false
		}
	}
	return true
}

// checkCompleteness verifies every acknowledged commit's writes were
// installed exactly once ("no committed write lost across view changes").
func checkCompleteness(in Input, ref map[string][]stm.TxnID, v *Verdict) {
	exact := len(in.FullHistory) > 0
	for _, c := range in.Commits {
		for _, w := range c.WS {
			n := 0
			for _, id := range ref[w.Box] {
				if id == c.ID {
					n++
				}
			}
			switch {
			case n == 1:
			case n > 1:
				v.violatef("write applied %d times: %v on box %q", n, c.ID, w.Box)
			case exact:
				v.violatef("committed write lost: %v wrote box %q but the write is absent from the version order", c.ID, w.Box)
			default:
				v.notef("write of %v on box %q absent from (truncated) version order — cannot distinguish loss from truncation", c.ID, w.Box)
			}
		}
	}
}

// checkSerializability builds the direct serialization graph and reports any
// cycle. Nodes are transaction IDs (the zero ID is the initial state). Edges:
//
//	ww — consecutive writers in each box's version order (the per-box write
//	     order is total, so consecutive edges carry the full order
//	     transitively);
//	rf — version writer → reader, for every read in a commit's read-set (a
//	     read that found no box is a read of the initial version, the zero
//	     writer: stm records it so);
//	rw — reader → the writer immediately after the version it observed
//	     (anti-dependency; later writers are reached through ww edges).
//
// Acyclicity of this graph over identical per-box version orders at every
// replica is the standard witness for one-copy serializability.
func checkSerializability(in Input, ref map[string][]stm.TxnID, v *Verdict) {
	g := newGraph()

	// Positions of each writer in each box's order, and ww edges.
	pos := make(map[string]map[stm.TxnID]int, len(ref))
	boxes := make([]string, 0, len(ref))
	for box := range ref {
		boxes = append(boxes, box)
	}
	sort.Strings(boxes)
	for _, box := range boxes {
		order := ref[box]
		p := make(map[stm.TxnID]int, len(order))
		for i, id := range order {
			p[id] = i
			g.node(id)
			if i > 0 {
				g.edge(order[i-1], id)
			}
		}
		pos[box] = p
	}

	recorded := make(map[stm.TxnID]bool, len(in.Commits))
	for _, c := range in.Commits {
		recorded[c.ID] = true
		g.node(c.ID)
	}
	v.UnrecordedWriters = 0
	for id := range g.index {
		if !id.IsZero() && !recorded[id] {
			v.UnrecordedWriters++
		}
	}

	exact := len(in.FullHistory) > 0
	for _, c := range in.Commits {
		for _, rd := range c.RS {
			order := ref[rd.Box]
			p, known := pos[rd.Box][rd.Writer]
			if !known {
				if rd.Writer.IsZero() {
					// Initial version, also what a read that found no box
					// records: virtual predecessor of the whole order (boxes
					// created by write-sets have no zero entry).
					p = -1
				} else if exact {
					v.violatef("read of unknown version: %v observed writer %v on box %q, absent from the version order %v",
						c.ID, rd.Writer, rd.Box, order)
					continue
				} else {
					v.notef("read of %v on box %q observed writer %v outside the truncated order", c.ID, rd.Box, rd.Writer)
					continue
				}
			}
			// rf: writer → reader.
			if rd.Writer != c.ID {
				g.node(rd.Writer)
				g.edge(rd.Writer, c.ID)
			}
			// rw: reader → the next writer of the box.
			if p+1 < len(order) && order[p+1] != c.ID {
				g.edge(c.ID, order[p+1])
			}
		}
	}

	if cycle := g.findCycle(); cycle != nil {
		parts := make([]string, len(cycle))
		for i, id := range cycle {
			parts[i] = id.String()
		}
		v.violatef("not one-copy serializable: serialization graph cycle %s", strings.Join(parts, " -> "))
	}
}

// graph is a small directed graph over transaction IDs.
type graph struct {
	index map[stm.TxnID]int
	ids   []stm.TxnID
	adj   [][]int
	edges map[[2]int]bool
}

func newGraph() *graph {
	return &graph{index: make(map[stm.TxnID]int), edges: make(map[[2]int]bool)}
}

func (g *graph) node(id stm.TxnID) int {
	if i, ok := g.index[id]; ok {
		return i
	}
	i := len(g.ids)
	g.index[id] = i
	g.ids = append(g.ids, id)
	g.adj = append(g.adj, nil)
	return i
}

func (g *graph) edge(from, to stm.TxnID) {
	if from == to {
		return
	}
	f, t := g.node(from), g.node(to)
	if g.edges[[2]int{f, t}] {
		return
	}
	g.edges[[2]int{f, t}] = true
	g.adj[f] = append(g.adj[f], t)
}

// findCycle returns the nodes of some cycle (first node repeated at the
// end), or nil if the graph is acyclic. Iterative DFS with three colors.
func (g *graph) findCycle() []stm.TxnID {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(g.ids))
	parent := make([]int, len(g.ids))
	for i := range parent {
		parent[i] = -1
	}

	type frame struct{ node, next int }
	for start := range g.ids {
		if color[start] != white {
			continue
		}
		stack := []frame{{start, 0}}
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(g.adj[f.node]) {
				to := g.adj[f.node][f.next]
				f.next++
				switch color[to] {
				case white:
					color[to] = gray
					parent[to] = f.node
					stack = append(stack, frame{to, 0})
				case gray:
					// Back edge: reconstruct f.node -> ... -> to -> f.node.
					cycle := []stm.TxnID{g.ids[to]}
					for n := f.node; n != to && n != -1; n = parent[n] {
						cycle = append(cycle, g.ids[n])
					}
					// Reverse into forward order and close the loop.
					for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
						cycle[i], cycle[j] = cycle[j], cycle[i]
					}
					return append(cycle, g.ids[to])
				}
			} else {
				color[f.node] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}
