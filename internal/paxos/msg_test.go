package paxos

import (
	"bytes"
	"testing"
	"testing/quick"
)

// decode is DecodeView materialized into a standalone Msg.
func decode(b []byte) (Msg, error) {
	var v MsgView
	if err := DecodeView(b, &v); err != nil {
		return Msg{}, err
	}
	return v.Msg(), nil
}

func TestMsgRoundTrip(t *testing.T) {
	m := Msg{
		Type:       MsgPhase2B,
		Instance:   1 << 40,
		Ballot:     7,
		VBallot:    6,
		NodeID:     2,
		LastVoted:  99,
		ClientID:   5,
		Seq:        12345,
		ClientAddr: "pxclient-5",
		Value:      []byte("hello"),
	}
	got, err := decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.Instance != m.Instance || got.Ballot != m.Ballot ||
		got.VBallot != m.VBallot || got.NodeID != m.NodeID || got.LastVoted != m.LastVoted ||
		got.ClientID != m.ClientID || got.Seq != m.Seq || got.ClientAddr != m.ClientAddr ||
		!bytes.Equal(got.Value, m.Value) {
		t.Errorf("round trip: got %+v, want %+v", got, m)
	}
}

func TestMsgEmptyValue(t *testing.T) {
	got, err := decode(Encode(Msg{Type: MsgGapRequest, Instance: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgGapRequest || got.Instance != 3 || len(got.Value) != 0 || got.ClientAddr != "" {
		t.Errorf("got %+v", got)
	}
}

func TestDecodeShort(t *testing.T) {
	if _, err := decode([]byte{1, 2}); err != ErrShortMessage {
		t.Errorf("err = %v, want ErrShortMessage", err)
	}
	// Declared lengths longer than the buffer.
	m := Encode(Msg{Type: MsgPhase2A, Value: []byte("abcdef")})
	if _, err := decode(m[:len(m)-3]); err != ErrShortMessage {
		t.Errorf("truncated value err = %v", err)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	names := map[MsgType]string{
		MsgClientRequest: "request", MsgPhase1A: "phase1a", MsgPhase1B: "phase1b",
		MsgPhase2A: "phase2a", MsgPhase2B: "phase2b", MsgDecision: "decision",
		MsgGapRequest: "gap", MsgType(0): "unknown",
	}
	for mt, want := range names {
		if mt.String() != want {
			t.Errorf("%d.String() = %q, want %q", mt, mt.String(), want)
		}
	}
}

// Property: Encode/Decode round-trips arbitrary messages.
func TestMsgRoundTripProperty(t *testing.T) {
	f := func(typ uint8, inst uint64, ballot, vballot uint32, node, cid uint16, seq uint64, value []byte) bool {
		m := Msg{
			Type: MsgType(typ%7 + 1), Instance: inst, Ballot: ballot, VBallot: vballot,
			NodeID: node, ClientID: cid, Seq: seq, ClientAddr: "a", Value: value,
		}
		if len(m.Value) > 60000 {
			m.Value = m.Value[:60000]
		}
		got, err := decode(Encode(m))
		return err == nil && got.Instance == inst && bytes.Equal(got.Value, m.Value) &&
			got.Ballot == ballot && got.Seq == seq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
