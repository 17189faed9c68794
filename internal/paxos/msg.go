// Package paxos implements the consensus case study (§3.2) in the shape
// of P4xos ("Paxos Made Switch-y"): the wire codec and the leader,
// acceptor and learner roles as dataplane handlers (live.go). One set of
// roles runs everywhere — incpaxosd serves them on sockets,
// internal/simhost on the virtual clock as libpaxos software or P4xos
// hardware, which differ only in service latency, capacity and power
// (§3.2's interchangeability).
//
// The §9.2 leader-shift machinery is implemented in full: acceptors
// piggyback their last-voted instance on every response, new leaders start
// from instance 1 and fast-forward from the piggybacked values, clients
// retry on a timeout, and learners detect instance gaps and ask the leader
// to re-initiate them (yielding the old value or a no-op).
package paxos

import (
	"encoding/binary"
	"errors"

	"incod/internal/simnet"
)

// MsgType enumerates Paxos wire messages.
type MsgType uint8

// Message types. Phase1A/1B are the classic prepare/promise exchange;
// steady-state operation uses Phase2A/2B like P4xos.
const (
	MsgClientRequest MsgType = iota + 1
	MsgPhase1A
	MsgPhase1B
	MsgPhase2A
	MsgPhase2B
	MsgDecision
	MsgGapRequest
)

// String returns the message type name.
func (t MsgType) String() string {
	switch t {
	case MsgClientRequest:
		return "request"
	case MsgPhase1A:
		return "phase1a"
	case MsgPhase1B:
		return "phase1b"
	case MsgPhase2A:
		return "phase2a"
	case MsgPhase2B:
		return "phase2b"
	case MsgDecision:
		return "decision"
	case MsgGapRequest:
		return "gap"
	}
	return "unknown"
}

// NoOp is the value learned for re-initiated instances nobody voted on.
var NoOp = []byte{}

// Msg is a Paxos wire message.
type Msg struct {
	Type     MsgType
	Instance uint64
	// Ballot is the proposal round; VBallot the round a value was
	// accepted in (Phase1B).
	Ballot  uint32
	VBallot uint32
	// NodeID identifies the sending acceptor (Phase1B/2B).
	NodeID uint16
	// LastVoted is the §9.2 piggyback: the acceptor's highest voted
	// instance, included "whenever the acceptor responds to a message".
	LastVoted uint64
	// ClientID/Seq identify the client request carried in Value.
	ClientID uint16
	Seq      uint64
	// ClientAddr routes the learner's decision back to the proposer.
	ClientAddr simnet.Addr
	Value      []byte
}

// ErrShortMessage reports a truncated Paxos datagram.
var ErrShortMessage = errors.New("paxos: truncated message")

const headerSize = 1 + 8 + 4 + 4 + 2 + 8 + 2 + 8 + 2 + 2 // + addr + value

// Encode serializes m.
func Encode(m Msg) []byte {
	return AppendMsg(make([]byte, 0, headerSize+len(m.ClientAddr)+len(m.Value)), m)
}

// AppendMsg is Encode into a caller-provided buffer; the live roles
// encode replies into their dataplane scratch buffer with it.
func AppendMsg(dst []byte, m Msg) []byte { return appendMsg(dst, &m) }

// appendMsg is AppendMsg without the copy of m, for the serving paths.
func appendMsg(dst []byte, m *Msg) []byte {
	b := dst
	b = append(b, byte(m.Type))
	b = binary.BigEndian.AppendUint64(b, m.Instance)
	b = binary.BigEndian.AppendUint32(b, m.Ballot)
	b = binary.BigEndian.AppendUint32(b, m.VBallot)
	b = binary.BigEndian.AppendUint16(b, m.NodeID)
	b = binary.BigEndian.AppendUint64(b, m.LastVoted)
	b = binary.BigEndian.AppendUint16(b, m.ClientID)
	b = binary.BigEndian.AppendUint64(b, m.Seq)
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.ClientAddr)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Value)))
	b = append(b, m.ClientAddr...)
	b = append(b, m.Value...)
	return b
}

// MsgView is Msg decoded without copying: ClientAddr and Value alias the
// inbound datagram and are valid only until the buffer is reused — the
// serving hot path's decode. State that must outlive the datagram (an
// acceptor's retained vote, a learner's quorum entry) is materialized
// with Msg(), which performs the copies only for what is kept.
type MsgView struct {
	Type       MsgType
	Instance   uint64
	Ballot     uint32
	VBallot    uint32
	NodeID     uint16
	LastVoted  uint64
	ClientID   uint16
	Seq        uint64
	ClientAddr []byte
	Value      []byte
}

// DecodeView parses a Paxos datagram into v without allocating.
func DecodeView(b []byte, v *MsgView) error {
	if len(b) < headerSize {
		return ErrShortMessage
	}
	v.Type = MsgType(b[0])
	v.Instance = binary.BigEndian.Uint64(b[1:])
	v.Ballot = binary.BigEndian.Uint32(b[9:])
	v.VBallot = binary.BigEndian.Uint32(b[13:])
	v.NodeID = binary.BigEndian.Uint16(b[17:])
	v.LastVoted = binary.BigEndian.Uint64(b[19:])
	v.ClientID = binary.BigEndian.Uint16(b[27:])
	v.Seq = binary.BigEndian.Uint64(b[29:])
	addrLen := int(binary.BigEndian.Uint16(b[37:]))
	valLen := int(binary.BigEndian.Uint16(b[39:]))
	if len(b) < headerSize+addrLen+valLen {
		return ErrShortMessage
	}
	v.ClientAddr = b[headerSize : headerSize+addrLen]
	v.Value = b[headerSize+addrLen : headerSize+addrLen+valLen]
	return nil
}

// Msg materializes the view into a standalone Msg, copying the aliased
// ClientAddr and Value out of the datagram buffer.
func (v *MsgView) Msg() Msg {
	return Msg{
		Type: v.Type, Instance: v.Instance,
		Ballot: v.Ballot, VBallot: v.VBallot,
		NodeID: v.NodeID, LastVoted: v.LastVoted,
		ClientID: v.ClientID, Seq: v.Seq,
		ClientAddr: simnet.Addr(v.ClientAddr),
		Value:      append([]byte(nil), v.Value...),
	}
}

// AppendMsgView is AppendMsg for a view, without materializing it.
func AppendMsgView(dst []byte, v *MsgView) []byte {
	b := dst
	b = append(b, byte(v.Type))
	b = binary.BigEndian.AppendUint64(b, v.Instance)
	b = binary.BigEndian.AppendUint32(b, v.Ballot)
	b = binary.BigEndian.AppendUint32(b, v.VBallot)
	b = binary.BigEndian.AppendUint16(b, v.NodeID)
	b = binary.BigEndian.AppendUint64(b, v.LastVoted)
	b = binary.BigEndian.AppendUint16(b, v.ClientID)
	b = binary.BigEndian.AppendUint64(b, v.Seq)
	b = binary.BigEndian.AppendUint16(b, uint16(len(v.ClientAddr)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(v.Value)))
	b = append(b, v.ClientAddr...)
	b = append(b, v.Value...)
	return b
}
