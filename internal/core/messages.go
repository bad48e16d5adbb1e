package core

import (
	"errors"

	"github.com/alcstm/alc/internal/bloom"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/transport"
	"github.com/alcstm/alc/internal/wire"
)

// errValidationFailed is the internal commit outcome for a transaction whose
// certification detected stale reads: the transaction must re-execute.
var errValidationFailed = errors.New("core: certification failed, stale reads")

// applyWSEntry is one lease-certified transaction's write-set (ALC,
// Algorithm 1's [ApplyWS, T, leaseID, writeset] message) inside an
// applyWSBatchMsg. It is also the durability tier's retained-entry unit, so
// it carries the lane the entry was delivered on: Ord == 0 means the causally
// ordered URB lane (filtered and replayed by the writer's per-replica
// sequence number), Ord > 0 means the totally ordered lane, where it is an
// ordinal every replica gives the same entry, unlike the writer's URB
// sequence, which the TO lane does not respect: for a CERT certification its
// position on the TO commit clock, for a §4.5(c) piggybacked write-set the TO
// position of the lease request that carried it.
type applyWSEntry struct {
	TxnID   stm.TxnID
	LeaseID lease.RequestID
	Ord     int64
	WS      stm.WriteSet
}

// applyWSBatchMsg is the group-commit message: every write-set the sender's
// commit coalescer accumulated while its previous batch was in flight,
// disseminated as a single causally ordered URB message — two communication
// steps, no total ordering. Entries are in the sender's commit order and are
// applied in that order wherever they intersect.
type applyWSBatchMsg struct {
	Entries []applyWSEntry
}

// certMsg disseminates a transaction for AB-based certification (CERT
// baseline): the Bloom-encoded (or exact) read-set and the write-set,
// TO-delivered and validated deterministically at every replica.
type certMsg struct {
	TxnID stm.TxnID
	// SnapshotOrd is the transaction's snapshot position in the totally
	// ordered commit log. In CERT every commit is TO-delivered, so commit
	// timestamps are identical cluster-wide and the snapshot is a
	// replica-independent log position.
	SnapshotOrd int64
	WS          stm.WriteSet
	// RSBloom is the Bloom-filter-encoded read-set (D2STM); RSExact is the
	// uncompressed alternative when the filter is disabled.
	RSBloom []byte
	RSExact []string
}

// rsChecker answers "might the transaction have read box b?".
type rsChecker struct {
	filter *bloom.Filter
	exact  map[string]bool
}

func (m *certMsg) checker() (*rsChecker, error) {
	c := &rsChecker{}
	if len(m.RSBloom) > 0 {
		f, err := bloom.Unmarshal(m.RSBloom)
		if err != nil {
			return nil, err
		}
		c.filter = f
		return c, nil
	}
	c.exact = make(map[string]bool, len(m.RSExact))
	for _, id := range m.RSExact {
		c.exact[id] = true
	}
	return c, nil
}

func (c *rsChecker) contains(box string) bool {
	if c.filter != nil {
		return c.filter.Contains(box)
	}
	return c.exact[box]
}

// certPayload is the §4.5 optimization (c) attachment to a lease request,
// ALC's lease-miss path: the transaction's read-set (with the
// replica-independent writer identities of the versions observed) and
// write-set. Every replica certifies and, on success, applies the transaction
// at the moment the lease is established — three communication steps total,
// with no separate write-set broadcast.
type certPayload struct {
	TxnID stm.TxnID
	RS    stm.ReadSet
	WS    stm.WriteSet
}

// xferState is the application state transferred to a joining replica: the
// STM heap, the lease table, the CERT validation log, and the applied
// frontier the store corresponds to (the joiner's durability tier restarts
// its delta window there).
type xferState struct {
	Store   stm.StoreSnapshot
	Leases  *lease.State
	CertLog []certLogEntry
	// Frontier is the coordinator's per-writer applied frontier at snapshot
	// time (see durable.frontier); TOAbove the TO-lane entries it applied
	// past the frontier's TO ordinal.
	Frontier map[transport.ID]uint64
	TOAbove  []int64
}

// xferDelta is the incremental alternative to xferState for a joiner that
// advertised a usable applied frontier: only the write-set entries past that
// frontier (oldest first, conflict-consistent order), plus the lease table
// and CERT window, which are small and not incrementally expressible.
type xferDelta struct {
	Entries []applyWSEntry
	Leases  *lease.State
	CertLog []certLogEntry
}

// RegisterValue registers an application value type stored in boxes that is
// not one of the wire codec's primitives (nil, bool, int, int64, uint64,
// float64, string, []byte), so it can cross a serializing transport and be
// written to the WAL.
func RegisterValue(v any) { wire.RegisterValue(v) }
