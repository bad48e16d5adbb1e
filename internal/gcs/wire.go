package gcs

import (
	"fmt"

	"github.com/alcstm/alc/internal/transport"
	"github.com/alcstm/alc/internal/wire"
)

// Binary wire tags for the GCS message types (range 0x10-0x1F; see
// wire.Register). Tags are wire format: never renumber.
const (
	tagURBData     byte = 0x10
	tagURBAck      byte = 0x11
	tagOrderBatch  byte = 0x12
	tagHeartbeat   byte = 0x13
	tagJoinReq     byte = 0x14
	tagVCPrepare   byte = 0x15
	tagVCFlush     byte = 0x16
	tagVCInstall   byte = 0x17
	tagVCStale     byte = 0x18
	tagEjectNotice byte = 0x19
)

// RegisterWire installs the binary codecs for every GCS wire type, for
// transports that serialize payloads (tcpnet). Application payload types
// carried inside broadcasts must be registered separately.
func RegisterWire() {
	wire.Register(tagURBData, &urbData{},
		func(b []byte, v any) ([]byte, error) { return appendURBData(b, v.(*urbData)) },
		func(r *wire.Reader) (any, error) { return readURBData(r) })
	wire.Register(tagURBAck, &urbAck{},
		func(b []byte, v any) ([]byte, error) {
			m := v.(*urbAck)
			return appendCounters(appendProcID(wire.AppendUvarint(b, m.View), m.From), m.Held), nil
		},
		func(r *wire.Reader) (any, error) {
			m := &urbAck{View: r.Uvarint(), From: readProcID(r)}
			if err := readCounters(r, &m.Held, nil); err != nil {
				return nil, err
			}
			return m, nil
		})
	wire.Register(tagOrderBatch, &orderBatch{},
		func(b []byte, v any) ([]byte, error) {
			return appendOrderEntries(b, v.(*orderBatch).Entries), nil
		},
		func(r *wire.Reader) (any, error) {
			return &orderBatch{Entries: readOrderEntries(r)}, r.Err()
		})
	wire.Register(tagHeartbeat, &heartbeat{},
		func(b []byte, v any) ([]byte, error) {
			m := v.(*heartbeat)
			return appendProcID(wire.AppendUvarint(b, m.View), m.From), nil
		},
		func(r *wire.Reader) (any, error) {
			return &heartbeat{View: r.Uvarint(), From: readProcID(r)}, r.Err()
		})
	wire.Register(tagJoinReq, &joinReq{},
		func(b []byte, v any) ([]byte, error) {
			m := v.(*joinReq)
			b = appendProcID(b, m.From)
			b = wire.AppendUvarint(b, m.ViewID)
			return appendVector(b, m.Frontier), nil
		},
		func(r *wire.Reader) (any, error) {
			m := &joinReq{From: readProcID(r), ViewID: r.Uvarint()}
			m.Frontier = readVector(r)
			return m, r.Err()
		})
	wire.Register(tagVCPrepare, &vcPrepare{},
		func(b []byte, v any) ([]byte, error) {
			m := v.(*vcPrepare)
			b = wire.AppendUvarint(b, m.ProposalID)
			b = appendProcID(b, m.Proposer)
			return appendProcIDs(b, m.Members), nil
		},
		func(r *wire.Reader) (any, error) {
			m := &vcPrepare{ProposalID: r.Uvarint(), Proposer: readProcID(r)}
			m.Members = readProcIDs(r)
			return m, r.Err()
		})
	wire.Register(tagVCFlush, &vcFlush{},
		func(b []byte, v any) ([]byte, error) {
			m := v.(*vcFlush)
			b = wire.AppendUvarint(b, m.ProposalID)
			b = appendProcID(b, m.From)
			b = wire.AppendUvarint(b, m.ViewID)
			b, err := appendURBDataSlice(b, m.Unstable)
			if err != nil {
				return b, err
			}
			b = appendOrderEntries(b, m.Orders)
			return wire.AppendUvarint(b, m.SeqNext), nil
		},
		func(r *wire.Reader) (any, error) {
			m := &vcFlush{ProposalID: r.Uvarint(), From: readProcID(r), ViewID: r.Uvarint()}
			var err error
			if m.Unstable, err = readURBDataSlice(r); err != nil {
				return nil, err
			}
			m.Orders = readOrderEntries(r)
			m.SeqNext = r.Uvarint()
			return m, r.Err()
		})
	wire.Register(tagVCInstall, &vcInstall{},
		func(b []byte, v any) ([]byte, error) {
			m := v.(*vcInstall)
			b = wire.AppendUvarint(b, m.ProposalID)
			b = appendView(b, m.View)
			b, err := appendURBDataSlice(b, m.Deliveries)
			if err != nil {
				return b, err
			}
			b = appendOrderEntries(b, m.Orders)
			b = wire.AppendBool(b, m.HasState)
			return wire.AppendAny(b, m.State)
		},
		func(r *wire.Reader) (any, error) {
			m := &vcInstall{ProposalID: r.Uvarint(), View: readView(r)}
			var err error
			if m.Deliveries, err = readURBDataSlice(r); err != nil {
				return nil, err
			}
			m.Orders = readOrderEntries(r)
			m.HasState = r.Bool()
			if m.State, err = wire.ReadAny(r); err != nil {
				return nil, err
			}
			return m, r.Err()
		})
	wire.Register(tagVCStale, &vcStale{},
		func(b []byte, v any) ([]byte, error) {
			return wire.AppendUvarint(b, v.(*vcStale).ViewID), nil
		},
		func(r *wire.Reader) (any, error) {
			return &vcStale{ViewID: r.Uvarint()}, r.Err()
		})
	wire.Register(tagEjectNotice, &ejectNotice{},
		func(b []byte, v any) ([]byte, error) {
			return wire.AppendUvarint(b, v.(*ejectNotice).ViewID), nil
		},
		func(r *wire.Reader) (any, error) {
			return &ejectNotice{ViewID: r.Uvarint()}, r.Err()
		})
}

// ---------------------------------------------------------------------------
// Field helpers shared by the codecs above (and by internal/core's).

func appendProcID(b []byte, id transport.ID) []byte { return wire.AppendVarint(b, int64(id)) }
func readProcID(r *wire.Reader) transport.ID        { return transport.ID(r.Varint()) }

func appendProcIDs(b []byte, ids []transport.ID) []byte {
	b = wire.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = appendProcID(b, id)
	}
	return b
}

func readProcIDs(r *wire.Reader) []transport.ID {
	n := r.Count()
	if n == 0 {
		return nil
	}
	ids := make([]transport.ID, n)
	for i := range ids {
		ids[i] = readProcID(r)
	}
	return ids
}

// appendVector encodes a per-process counter map (vector clock, frontier).
// Nil-ness is preserved: a nil map means something different from an empty
// one to joinReq.Frontier (nil demands a full state transfer).
func appendVector(b []byte, m map[transport.ID]uint64) []byte {
	if m == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = wire.AppendUvarint(b, uint64(len(m)))
	for id, v := range m {
		b = appendProcID(b, id)
		b = wire.AppendUvarint(b, v)
	}
	return b
}

func readVector(r *wire.Reader) map[transport.ID]uint64 {
	if r.Byte() == 0 {
		return nil
	}
	n := r.Count()
	m := make(map[transport.ID]uint64, n)
	for i := 0; i < n; i++ {
		id := readProcID(r)
		v := r.Uvarint()
		if r.Err() != nil {
			return nil
		}
		m[id] = v
	}
	return m
}

// appendCounters encodes member-indexed vectors (vector clocks, held
// vectors): every length first, then every entry, so that the decoder backs
// them all with one allocation. An empty vector decodes as nil.
func appendCounters(b []byte, vecs ...[]uint64) []byte {
	for _, v := range vecs {
		b = wire.AppendUvarint(b, uint64(len(v)))
	}
	for _, v := range vecs {
		for _, x := range v {
			b = wire.AppendUvarint(b, x)
		}
	}
	return b
}

// readCounters decodes what appendCounters wrote: vector a and, unless b is
// nil, vector b. A vector longer than a view can be (maxMembers) is refused
// before anything is allocated.
func readCounters(r *wire.Reader, a, b *[]uint64) error {
	into := [2]*[]uint64{a, b}
	var lens [2]int
	total := 0
	for i, p := range into {
		if p == nil {
			continue
		}
		if lens[i] = r.Count(); lens[i] > maxMembers {
			return fmt.Errorf("gcs: %d-entry vector exceeds the %d-member bound", lens[i], maxMembers)
		}
		total += lens[i]
	}
	if r.Err() != nil || total == 0 {
		return r.Err()
	}
	if total > r.Len() {
		return wire.ErrOversize
	}
	buf := make([]uint64, total)
	for i := range buf {
		buf[i] = r.Uvarint()
	}
	for i, p := range into {
		if lens[i] > 0 {
			*p, buf = buf[:lens[i]:lens[i]], buf[lens[i]:]
		}
	}
	return r.Err()
}

func appendMsgID(b []byte, id msgID) []byte {
	return wire.AppendUvarint(appendProcID(b, id.Sender), id.Seq)
}

func readMsgID(r *wire.Reader) msgID {
	return msgID{Sender: readProcID(r), Seq: r.Uvarint()}
}

func appendOrderEntries(b []byte, entries []orderEntry) []byte {
	b = wire.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = appendMsgID(b, e.ID)
		b = wire.AppendUvarint(b, e.GSeq)
	}
	return b
}

func readOrderEntries(r *wire.Reader) []orderEntry {
	n := r.Count()
	if n == 0 {
		return nil
	}
	entries := make([]orderEntry, n)
	for i := range entries {
		entries[i] = orderEntry{ID: readMsgID(r), GSeq: r.Uvarint()}
	}
	return entries
}

func appendView(b []byte, v View) []byte {
	b = wire.AppendUvarint(b, v.ID)
	b = appendProcIDs(b, v.Members)
	b = wire.AppendBool(b, v.Primary)
	return appendProcIDs(b, v.Rejoined)
}

func readView(r *wire.Reader) View {
	return View{
		ID:       r.Uvarint(),
		Members:  readProcIDs(r),
		Primary:  r.Bool(),
		Rejoined: readProcIDs(r),
	}
}

func appendURBData(b []byte, m *urbData) ([]byte, error) {
	b = wire.AppendUvarint(b, m.View)
	b = appendMsgID(b, m.ID)
	b = append(b, m.Kind)
	b = wire.AppendBool(b, m.Committed)
	b = appendCounters(b, m.VC, m.Acks)
	return wire.AppendAny(b, m.Body)
}

func readURBData(r *wire.Reader) (*urbData, error) {
	m := &urbData{View: r.Uvarint(), ID: readMsgID(r), Kind: r.Byte(), Committed: r.Bool()}
	err := readCounters(r, &m.VC, &m.Acks)
	if err != nil {
		return nil, err
	}
	if m.Body, err = wire.ReadAny(r); err != nil {
		return nil, err
	}
	return m, r.Err()
}

// appendURBDataSlice encodes the flush/install payload unions. Elements are
// pointers but never nil in the protocol; a nil element is rejected at encode
// time rather than smuggled as an empty message.
func appendURBDataSlice(b []byte, ms []*urbData) ([]byte, error) {
	b = wire.AppendUvarint(b, uint64(len(ms)))
	for _, m := range ms {
		if m == nil {
			return b, fmt.Errorf("gcs: nil urbData in wire slice")
		}
		var err error
		if b, err = appendURBData(b, m); err != nil {
			return b, err
		}
	}
	return b, nil
}

func readURBDataSlice(r *wire.Reader) ([]*urbData, error) {
	n := r.Count()
	if n == 0 {
		return nil, r.Err()
	}
	ms := make([]*urbData, n)
	for i := range ms {
		m, err := readURBData(r)
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	return ms, r.Err()
}
