package paxos

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzDecode guards the codec behind the serving path: whatever the
// zero-copy DecodeView accepts — short headers, truncated bodies and
// oversized declared lengths must be refused — keeps every aliased field
// inside the datagram, materializes into a Msg with the same fields, and
// both encoders re-encode it to the same canonical bytes, which decode to
// the same Msg.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(Msg{Type: MsgPhase2A, Instance: 9, Ballot: 3, ClientAddr: "client-1:9", Value: []byte("cmd")}))
	f.Add(Encode(Msg{Type: MsgPhase2B, Instance: 1 << 40, Ballot: 7, VBallot: 6, NodeID: 2,
		LastVoted: 99, ClientID: 5, Seq: 12345, ClientAddr: "pxclient-5", Value: []byte("hello")}))
	short := Encode(Msg{Type: MsgPhase2B, Value: []byte("abcdef")})
	f.Add(short[:len(short)-3]) // truncated value
	overVal := Encode(Msg{Type: MsgPhase1A})
	binary.BigEndian.PutUint16(overVal[39:], 60000) // valLen far past the buffer
	f.Add(overVal)
	overAddr := Encode(Msg{Type: MsgPhase1A})
	binary.BigEndian.PutUint16(overAddr[37:], 0xFFFF) // addrLen far past the buffer
	f.Add(overAddr)
	f.Add([]byte{1, 2})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var v MsgView
		if err := DecodeView(data, &v); err != nil {
			if len(data) >= headerSize && len(data) >= headerSize+int(binary.BigEndian.Uint16(data[37:]))+int(binary.BigEndian.Uint16(data[39:])) {
				t.Fatalf("DecodeView refused a complete datagram: %v", err)
			}
			return
		}
		if len(v.ClientAddr)+len(v.Value) > len(data)-headerSize {
			t.Fatalf("view fields (%d+%d bytes) reach past the %d-byte datagram", len(v.ClientAddr), len(v.Value), len(data))
		}
		m := v.Msg()
		if m.Type != v.Type || m.Instance != v.Instance || m.Ballot != v.Ballot ||
			m.VBallot != v.VBallot || m.NodeID != v.NodeID || m.LastVoted != v.LastVoted ||
			m.ClientID != v.ClientID || m.Seq != v.Seq {
			t.Fatalf("view %+v != msg %+v", v, m)
		}
		if string(v.ClientAddr) != string(m.ClientAddr) || !bytes.Equal(v.Value, m.Value) {
			t.Fatalf("aliased fields diverged: view (%q, %q) msg (%q, %q)",
				v.ClientAddr, v.Value, m.ClientAddr, m.Value)
		}
		// Both encoders produce the same canonical bytes, which round-trip.
		enc := AppendMsgView(nil, &v)
		if !bytes.Equal(enc, AppendMsg(nil, m)) {
			t.Fatalf("AppendMsgView != AppendMsg")
		}
		m2, err := decode(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip diverged: %+v -> %+v", m, m2)
		}
	})
}
