package core

import (
	"fmt"

	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/transport"
	"github.com/alcstm/alc/internal/wire"
)

// Binary wire tags for the replication-layer message types (range 0x20-0x2F;
// gcs owns 0x10-0x1F). Tags are wire format: never renumber. Retired, never
// to be reused: 0x20 (the single write-set message), 0x29 and 0x2A (the
// shard-group envelopes).
const (
	tagApplyWSBatch byte = 0x21
	tagCertMsg      byte = 0x22
	tagCertPayload  byte = 0x23
	tagLeaseRequest byte = 0x24
	tagLeaseFreed   byte = 0x25
	tagLeaseState   byte = 0x26
	tagXferState    byte = 0x27
	tagXferDelta    byte = 0x28
)

// RegisterWire installs the binary codecs for every replication-layer wire
// type, including the lease messages it broadcasts, for transports that
// serialize payloads (tcpnet). Box VALUES use the wire package's primitive
// tags; application types beyond those must additionally be registered
// through RegisterValue.
func RegisterWire() {
	wire.Register(tagApplyWSBatch, &applyWSBatchMsg{},
		func(b []byte, v any) ([]byte, error) {
			return appendWSEntries(b, v.(*applyWSBatchMsg).Entries)
		},
		func(r *wire.Reader) (any, error) {
			entries, err := readWSEntries(r)
			if err != nil {
				return nil, err
			}
			return &applyWSBatchMsg{Entries: entries}, r.Err()
		})
	wire.Register(tagCertMsg, &certMsg{},
		func(b []byte, v any) ([]byte, error) {
			m := v.(*certMsg)
			b = appendTxnID(b, m.TxnID)
			b = wire.AppendVarint(b, m.SnapshotOrd)
			b, err := appendWriteSet(b, m.WS)
			if err != nil {
				return b, err
			}
			b = wire.AppendBytes(b, m.RSBloom)
			return appendStrings(b, m.RSExact), nil
		},
		func(r *wire.Reader) (any, error) {
			m := &certMsg{TxnID: readTxnID(r), SnapshotOrd: r.Varint()}
			var err error
			if m.WS, err = readWriteSet(r); err != nil {
				return nil, err
			}
			m.RSBloom = r.Bytes()
			m.RSExact = readStrings(r)
			return m, r.Err()
		})
	wire.Register(tagCertPayload, &certPayload{},
		func(b []byte, v any) ([]byte, error) {
			m := v.(*certPayload)
			b = appendTxnID(b, m.TxnID)
			b = appendReadSet(b, m.RS)
			return appendWriteSet(b, m.WS)
		},
		func(r *wire.Reader) (any, error) {
			m := &certPayload{TxnID: readTxnID(r), RS: readReadSet(r)}
			var err error
			if m.WS, err = readWriteSet(r); err != nil {
				return nil, err
			}
			return m, r.Err()
		})
	wire.Register(tagLeaseRequest, &lease.Request{},
		func(b []byte, v any) ([]byte, error) {
			m := v.(*lease.Request)
			b = appendLeaseReqID(b, m.ID)
			b = wire.AppendUvarint(b, uint64(len(m.Classes)))
			for _, cc := range m.Classes {
				b = wire.AppendUvarint(b, uint64(cc))
			}
			b = wire.AppendBool(b, m.Wildcard)
			b = appendLeaseReqIDs(b, m.FreeFirst)
			return wire.AppendAny(b, m.Payload)
		},
		func(r *wire.Reader) (any, error) {
			m := &lease.Request{ID: readLeaseReqID(r)}
			if n := r.Count(); n > 0 {
				m.Classes = make([]lease.ConflictClass, n)
				for i := range m.Classes {
					m.Classes[i] = lease.ConflictClass(r.Uvarint())
				}
			}
			m.Wildcard = r.Bool()
			m.FreeFirst = readLeaseReqIDs(r)
			var err error
			if m.Payload, err = wire.ReadAny(r); err != nil {
				return nil, err
			}
			return m, r.Err()
		})
	wire.Register(tagLeaseFreed, &lease.Freed{},
		func(b []byte, v any) ([]byte, error) {
			m := v.(*lease.Freed)
			return wire.AppendBool(appendLeaseReqIDs(b, m.IDs), m.Resent), nil
		},
		func(r *wire.Reader) (any, error) {
			m := &lease.Freed{IDs: readLeaseReqIDs(r)}
			m.Resent = r.Bool()
			return m, r.Err()
		})
	wire.Register(tagLeaseState, &lease.State{},
		func(b []byte, v any) ([]byte, error) { return appendLeaseState(b, v.(*lease.State)) },
		func(r *wire.Reader) (any, error) { return readLeaseState(r) })
	wire.Register(tagXferState, &xferState{},
		func(b []byte, v any) ([]byte, error) {
			m := v.(*xferState)
			b, err := appendStoreSnapshot(b, m.Store)
			if err != nil {
				return b, err
			}
			if b, err = appendLeaseStatePtr(b, m.Leases); err != nil {
				return b, err
			}
			b = appendCertLog(b, m.CertLog)
			return appendOrds(appendFrontier(b, m.Frontier), m.TOAbove), nil
		},
		func(r *wire.Reader) (any, error) {
			m := &xferState{}
			var err error
			if m.Store, err = readStoreSnapshot(r); err != nil {
				return nil, err
			}
			if m.Leases, err = readLeaseStatePtr(r); err != nil {
				return nil, err
			}
			m.CertLog = readCertLog(r)
			m.Frontier = readFrontier(r)
			m.TOAbove = readOrds(r)
			return m, r.Err()
		})
	wire.Register(tagXferDelta, &xferDelta{},
		func(b []byte, v any) ([]byte, error) {
			m := v.(*xferDelta)
			b, err := appendWSEntries(b, m.Entries)
			if err != nil {
				return b, err
			}
			if b, err = appendLeaseStatePtr(b, m.Leases); err != nil {
				return b, err
			}
			return appendCertLog(b, m.CertLog), nil
		},
		func(r *wire.Reader) (any, error) {
			m := &xferDelta{}
			var err error
			if m.Entries, err = readWSEntries(r); err != nil {
				return nil, err
			}
			if m.Leases, err = readLeaseStatePtr(r); err != nil {
				return nil, err
			}
			m.CertLog = readCertLog(r)
			return m, r.Err()
		})
}

// ---------------------------------------------------------------------------
// Field helpers.

func appendTxnID(b []byte, id stm.TxnID) []byte {
	b = wire.AppendVarint(b, int64(id.Replica))
	return wire.AppendUvarint(b, id.Seq)
}

func readTxnID(r *wire.Reader) stm.TxnID {
	return stm.TxnID{Replica: transport.ID(r.Varint()), Seq: r.Uvarint()}
}

func appendLeaseReqID(b []byte, id lease.RequestID) []byte {
	b = wire.AppendVarint(b, int64(id.Proc))
	return wire.AppendUvarint(b, id.Seq)
}

func readLeaseReqID(r *wire.Reader) lease.RequestID {
	return lease.RequestID{Proc: transport.ID(r.Varint()), Seq: r.Uvarint()}
}

func appendLeaseReqIDs(b []byte, ids []lease.RequestID) []byte {
	b = wire.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = appendLeaseReqID(b, id)
	}
	return b
}

func readLeaseReqIDs(r *wire.Reader) []lease.RequestID {
	n := r.Count()
	if n == 0 {
		return nil
	}
	ids := make([]lease.RequestID, n)
	for i := range ids {
		ids[i] = readLeaseReqID(r)
	}
	return ids
}

func appendStrings(b []byte, ss []string) []byte {
	b = wire.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = wire.AppendString(b, s)
	}
	return b
}

func readStrings(r *wire.Reader) []string {
	n := r.Count()
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.String()
	}
	return ss
}

func appendWriteSet(b []byte, ws stm.WriteSet) ([]byte, error) {
	b = wire.AppendUvarint(b, uint64(len(ws)))
	for _, e := range ws {
		b = wire.AppendString(b, e.Box)
		var err error
		if b, err = wire.AppendAny(b, e.Value); err != nil {
			return b, err
		}
	}
	return b, nil
}

func readWriteSet(r *wire.Reader) (stm.WriteSet, error) {
	n := r.Count()
	if n == 0 {
		return nil, r.Err()
	}
	ws := make(stm.WriteSet, n)
	for i := range ws {
		ws[i].Box = r.String()
		var err error
		if ws[i].Value, err = wire.ReadAny(r); err != nil {
			return nil, err
		}
	}
	return ws, r.Err()
}

func appendReadSet(b []byte, rs stm.ReadSet) []byte {
	b = wire.AppendUvarint(b, uint64(len(rs)))
	for _, e := range rs {
		b = wire.AppendString(b, e.Box)
		b = appendTxnID(b, e.Writer)
	}
	return b
}

func readReadSet(r *wire.Reader) stm.ReadSet {
	n := r.Count()
	if n == 0 {
		return nil
	}
	rs := make(stm.ReadSet, n)
	for i := range rs {
		rs[i] = stm.ReadEntry{Box: r.String(), Writer: readTxnID(r)}
	}
	return rs
}

func appendWSEntries(b []byte, entries []applyWSEntry) ([]byte, error) {
	b = wire.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = appendTxnID(b, e.TxnID)
		b = appendLeaseReqID(b, e.LeaseID)
		b = wire.AppendVarint(b, e.Ord)
		var err error
		if b, err = appendWriteSet(b, e.WS); err != nil {
			return b, err
		}
	}
	return b, nil
}

func readWSEntries(r *wire.Reader) ([]applyWSEntry, error) {
	n := r.Count()
	if n == 0 {
		return nil, r.Err()
	}
	// All write-sets in the batch share one backing array (subsliced at the
	// end, after growth has settled): one allocation per batch instead of one
	// per transaction. Full-capacity subslices keep a later append on one
	// entry's WS from clobbering its neighbor.
	entries := make([]applyWSEntry, n)
	offs := make([]int, n+1)
	var flat stm.WriteSet
	for i := range entries {
		entries[i].TxnID = readTxnID(r)
		entries[i].LeaseID = readLeaseReqID(r)
		entries[i].Ord = r.Varint()
		wn := r.Count()
		for j := 0; j < wn; j++ {
			box := r.String()
			v, err := wire.ReadAny(r)
			if err != nil {
				return nil, err
			}
			flat = append(flat, stm.WriteEntry{Box: box, Value: v})
		}
		offs[i+1] = len(flat)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	for i := range entries {
		if offs[i] != offs[i+1] {
			entries[i].WS = flat[offs[i]:offs[i+1]:offs[i+1]]
		}
	}
	return entries, nil
}

func appendStoreSnapshot(b []byte, s stm.StoreSnapshot) ([]byte, error) {
	b = wire.AppendVarint(b, s.Clock)
	b = wire.AppendUvarint(b, uint64(len(s.Boxes)))
	for _, bs := range s.Boxes {
		b = wire.AppendString(b, bs.Box)
		b = appendTxnID(b, bs.Writer)
		var err error
		if b, err = wire.AppendAny(b, bs.Value); err != nil {
			return b, err
		}
	}
	return b, nil
}

func readStoreSnapshot(r *wire.Reader) (stm.StoreSnapshot, error) {
	s := stm.StoreSnapshot{Clock: r.Varint()}
	n := r.Count()
	if n == 0 {
		return s, r.Err()
	}
	s.Boxes = make([]stm.BoxState, n)
	for i := range s.Boxes {
		s.Boxes[i].Box = r.String()
		s.Boxes[i].Writer = readTxnID(r)
		var err error
		if s.Boxes[i].Value, err = wire.ReadAny(r); err != nil {
			return s, err
		}
	}
	return s, r.Err()
}

// appendLeaseStatePtr encodes a possibly-nil *lease.State with a presence
// byte (xferState.Leases is nil when the coordinator had no lease table).
func appendLeaseStatePtr(b []byte, st *lease.State) ([]byte, error) {
	if st == nil {
		return append(b, 0), nil
	}
	return appendLeaseState(append(b, 1), st)
}

func readLeaseStatePtr(r *wire.Reader) (*lease.State, error) {
	if r.Byte() == 0 {
		return nil, r.Err()
	}
	return readLeaseState(r)
}

func appendLeaseState(b []byte, st *lease.State) ([]byte, error) {
	b = wire.AppendUvarint(b, uint64(len(st.Requests)))
	for _, req := range st.Requests {
		if req == nil {
			return b, fmt.Errorf("core: nil lease request in state snapshot")
		}
		b = appendLeaseReqID(b, req.ID)
		b = wire.AppendUvarint(b, uint64(len(req.Classes)))
		for _, cc := range req.Classes {
			b = wire.AppendUvarint(b, uint64(cc))
		}
		b = wire.AppendBool(b, req.Wildcard)
		b = appendLeaseReqIDs(b, req.FreeFirst)
		var err error
		if b, err = wire.AppendAny(b, req.Payload); err != nil {
			return b, err
		}
	}
	b = wire.AppendUvarint(b, uint64(len(st.Queues)))
	for cc, ids := range st.Queues {
		b = wire.AppendUvarint(b, uint64(cc))
		b = appendLeaseReqIDs(b, ids)
	}
	b = wire.AppendUvarint(b, uint64(len(st.Pos)))
	for _, p := range st.Pos {
		b = wire.AppendUvarint(b, p)
	}
	b = wire.AppendUvarint(b, st.NextPos)
	b = wire.AppendUvarint(b, uint64(len(st.Done)))
	for _, done := range st.Done {
		b = wire.AppendBool(b, done)
	}
	return b, nil
}

func readLeaseState(r *wire.Reader) (*lease.State, error) {
	st := &lease.State{}
	if n := r.Count(); n > 0 {
		st.Requests = make([]*lease.Request, n)
		for i := range st.Requests {
			req := &lease.Request{ID: readLeaseReqID(r)}
			if cn := r.Count(); cn > 0 {
				req.Classes = make([]lease.ConflictClass, cn)
				for j := range req.Classes {
					req.Classes[j] = lease.ConflictClass(r.Uvarint())
				}
			}
			req.Wildcard = r.Bool()
			req.FreeFirst = readLeaseReqIDs(r)
			var err error
			if req.Payload, err = wire.ReadAny(r); err != nil {
				return nil, err
			}
			st.Requests[i] = req
		}
	}
	if n := r.Count(); n > 0 {
		st.Queues = make(map[lease.ConflictClass][]lease.RequestID, n)
		for i := 0; i < n; i++ {
			cc := lease.ConflictClass(r.Uvarint())
			ids := readLeaseReqIDs(r)
			if r.Err() != nil {
				return nil, r.Err()
			}
			st.Queues[cc] = ids
		}
	}
	if n := r.Count(); n > 0 {
		st.Pos = make([]uint64, n)
		for i := range st.Pos {
			st.Pos[i] = r.Uvarint()
		}
	}
	st.NextPos = r.Uvarint()
	if n := r.Count(); n > 0 {
		st.Done = make([]bool, n)
		for i := range st.Done {
			st.Done[i] = r.Bool()
		}
	}
	return st, r.Err()
}

func appendCertLog(b []byte, entries []certLogEntry) []byte {
	b = wire.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = wire.AppendVarint(b, e.TS)
		b = appendStrings(b, e.Boxes)
	}
	return b
}

func readCertLog(r *wire.Reader) []certLogEntry {
	n := r.Count()
	if n == 0 {
		return nil
	}
	entries := make([]certLogEntry, n)
	for i := range entries {
		entries[i] = certLogEntry{TS: r.Varint(), Boxes: readStrings(r)}
	}
	return entries
}

// appendOrds encodes the TO lane's applied ordinals past its frontier.
func appendOrds(b []byte, ords []int64) []byte {
	b = wire.AppendUvarint(b, uint64(len(ords)))
	for _, o := range ords {
		b = wire.AppendVarint(b, o)
	}
	return b
}

func readOrds(r *wire.Reader) []int64 {
	n := r.Count()
	if n == 0 {
		return nil
	}
	ords := make([]int64, n)
	for i := range ords {
		ords[i] = r.Varint()
	}
	return ords
}

// appendFrontier matches gcs's vector encoding (presence byte + pairs);
// xferState.Frontier nil-ness tells the joiner's durability tier whether a
// baseline frontier exists.
func appendFrontier(b []byte, m map[transport.ID]uint64) []byte {
	if m == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = wire.AppendUvarint(b, uint64(len(m)))
	for id, v := range m {
		b = wire.AppendVarint(b, int64(id))
		b = wire.AppendUvarint(b, v)
	}
	return b
}

func readFrontier(r *wire.Reader) map[transport.ID]uint64 {
	if r.Byte() == 0 {
		return nil
	}
	n := r.Count()
	m := make(map[transport.ID]uint64, n)
	for i := 0; i < n; i++ {
		id := transport.ID(r.Varint())
		v := r.Uvarint()
		if r.Err() != nil {
			return nil
		}
		m[id] = v
	}
	return m
}
