package gcs

import (
	"fmt"

	"github.com/alcstm/alc/internal/transport"
)

// Message kinds carried inside urbData.
const (
	kindURB   byte = 1 // application uniform reliable broadcast
	kindOAB   byte = 2 // application atomic broadcast payload
	kindOrder byte = 3 // internal: sequencer order assignment batch
)

// msgID identifies a broadcast message within a view: the sender and the
// sender's per-view sequence number (1-based).
type msgID struct {
	Sender transport.ID
	Seq    uint64
}

func (id msgID) String() string { return fmt.Sprintf("%d:%d", id.Sender, id.Seq) }

// urbData is the single wire format for all broadcast payloads. Every
// broadcast (URB, OAB payload, internal order batch) is disseminated
// uniform-reliably: the frame is its sender's ack of its own messages up to
// it, and the message is UR-delivered once a majority is known to hold it and
// its causal predecessors (VC) have been delivered. Both vectors are indexed
// like the view's Members.
type urbData struct {
	View uint64
	ID   msgID
	Kind byte
	// VC is the sender's delivered-count vector at send time: VC[p] is the
	// number of messages from member p the sender had UR-delivered. Delivery
	// is delayed until the local delivered vector dominates VC, which yields
	// causal order (per-sender FIFO comes from the sequence numbers).
	VC   []uint64
	Body any
	// Committed marks a retransmission of a message its sender has already
	// UR-delivered (hence majority-stable): late receivers may deliver it
	// without re-collecting acknowledgements, which would otherwise be
	// impossible — the historical acks are not replayed.
	Committed bool
	// Acks, when set, is the sender's held vector at send time (see urbAck).
	// It is attached when the sender owes a peer an acknowledgement, and
	// stays true for the rest of the view, so copies carry it everywhere.
	Acks []uint64
}

// urbAck is one member's cumulative acknowledgement, for its peers' quorum
// checks and for stability (a message the full view holds can be garbage
// collected): Held[s] is the highest seq such that From holds every message
// from member s up to it.
type urbAck struct {
	View uint64
	From transport.ID
	Held []uint64
}

// orderEntry assigns a global sequence number to an OAB payload.
type orderEntry struct {
	ID   msgID
	GSeq uint64
}

// orderBatch is the body of an internal kindOrder message emitted by the
// sequencer (the view coordinator).
type orderBatch struct {
	Entries []orderEntry
}

// heartbeat is a liveness beacon.
type heartbeat struct {
	View uint64
	From transport.ID
}

// joinReq asks the primary component to admit the sender. ViewID advertises
// the sender's last installed view: 0 for a fresh or restarted (stateless)
// process, the view it was ejected at for a process whose state survived.
// Ejected processes collect peers' advertised ViewIDs to detect a dead
// primary component and recover it (see maybeRecoverLocked).
type joinReq struct {
	From   transport.ID
	ViewID uint64
	// Frontier advertises the sender's applied progress (per-writer highest
	// applied transaction sequence number) when its local state is a
	// complete, frontier-consistent base — the coordinator may then ship a
	// delta state transfer instead of the full snapshot. Nil demands a full
	// transfer.
	Frontier map[transport.ID]uint64
}

// vcPrepare starts a view change: members of the proposed view stop
// broadcasting and respond with their unstable state.
type vcPrepare struct {
	ProposalID uint64
	Proposer   transport.ID
	Members    []transport.ID
}

// vcFlush is a member's response to vcPrepare: everything it knows that may
// not be stable yet.
type vcFlush struct {
	ProposalID uint64
	From       transport.ID
	// ViewID is the respondent's current view. A respondent behind the
	// proposer's view missed an installation and is readmitted through a
	// state transfer instead of a flush merge.
	ViewID uint64
	// Unstable carries every message the member has received that is not
	// known stable (acknowledged by the full view), including already
	// delivered ones so the coordinator can retransmit to laggards.
	Unstable []*urbData
	// Orders are the member's known, not-yet-TO-delivered order assignments.
	Orders []orderEntry
	// SeqNext is meaningful on the old sequencer: the next unassigned GSeq.
	SeqNext uint64
}

// vcInstall finalizes a view change. Receivers deliver everything in
// Deliveries/Orders that they have not yet delivered (in a deterministic
// order), then install the view.
type vcInstall struct {
	ProposalID uint64
	View       View
	// Deliveries is the causally closed union of unstable messages; every
	// member delivers the ones it has not delivered yet before installing
	// the view (virtual synchrony).
	Deliveries []*urbData
	// Orders is the complete total-order assignment for every OAB payload
	// in the old view that had not been TO-delivered everywhere, including
	// coordinator-assigned slots for payloads the old sequencer never
	// ordered.
	Orders []orderEntry
	// HasState marks a state transfer for a joining member; State is the
	// application snapshot captured after the coordinator finished the old
	// view's deliveries.
	HasState bool
	State    any
}

// ejectNotice tells a process it is not part of the installed view (it has
// been excluded from the primary component).
type ejectNotice struct {
	ViewID uint64
}
