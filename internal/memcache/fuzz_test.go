package memcache

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame holds the UDP frame split to its contract on arbitrary
// datagrams: no panic, a short datagram refused, and otherwise a body
// that is the input's tail past the header, lying inside the input.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(EncodeFrame(Frame{RequestID: 7, Total: 1}, []byte("get k\r\n")))
	f.Add(EncodeFrame(Frame{RequestID: 0xFFFF, SeqNo: 2, Total: 3, Reserved: 1}, nil))
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, body, err := DecodeFrame(data)
		if len(data) < FrameHeaderSize {
			if err == nil {
				t.Fatalf("%d-byte datagram accepted", len(data))
			}
			return
		}
		if err != nil {
			t.Fatalf("%d-byte datagram refused: %v", len(data), err)
		}
		if len(body) != len(data)-FrameHeaderSize || len(body) > 0 && &body[0] != &data[FrameHeaderSize] {
			t.Fatalf("body of %d bytes does not lie at the input's tail (%d bytes)", len(body), len(data))
		}
		if !bytes.Equal(AppendFrame(nil, fr), data[:FrameHeaderSize]) {
			t.Fatalf("header %+v does not re-encode to %x", fr, data[:FrameHeaderSize])
		}
	})
}

// FuzzParseRequest runs the allocating ASCII decoder on its own (the
// view parser's fuzz target holds the two together): no panic, and every
// key it returns is a whitespace-free run of the input within the
// protocol's length limit, as is a set's value.
func FuzzParseRequest(f *testing.F) {
	for _, c := range viewParityCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(data)
		if err != nil {
			return
		}
		for _, k := range req.AllKeys() {
			if k == "" || len(k) > MaxKeyLen || !bytes.Contains(data, []byte(k)) ||
				bytes.ContainsFunc([]byte(k), func(r rune) bool { return r < 0x80 && asciiSpace(byte(r)) }) {
				t.Fatalf("%q: key %q does not lie inside the input", data, k)
			}
		}
		if len(req.Value) > 0 && !bytes.Contains(data, req.Value) {
			t.Fatalf("%q: value %q does not lie inside the input", data, req.Value)
		}
	})
}
