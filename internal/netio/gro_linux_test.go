//go:build linux && (amd64 || arm64)

package netio

import (
	"encoding/binary"
	"testing"
)

// cmsg lays out one control message as the kernel does: u64 len, i32
// level, i32 type, data, padded to 8 bytes.
func cmsg(level, typ int32, data []byte) []byte {
	b := make([]byte, (16+len(data)+7)&^7)
	binary.LittleEndian.PutUint64(b, uint64(16+len(data)))
	binary.LittleEndian.PutUint32(b[8:], uint32(level))
	binary.LittleEndian.PutUint32(b[12:], uint32(typ))
	copy(b[16:], data)
	return b
}

// FuzzParseGROSegSize walks arbitrary completion control regions: the
// walk never panics, and a nonzero segment size is the payload of a
// SOL_UDP/UDP_GRO cmsg that lies inside the buffer at an aligned offset.
func FuzzParseGROSegSize(f *testing.F) {
	seg := binary.LittleEndian.AppendUint32(nil, 1200)
	f.Add(cmsg(solUDP, udpGRO, seg))
	f.Add(append(cmsg(0, 8, make([]byte, 12)), cmsg(solUDP, udpGRO, seg)...)) // IP_PKTINFO first
	f.Add(cmsg(solUDP, udpGRO, seg[:2]))                                      // too short to carry the size
	f.Add(cmsg(solUDP, udpSegment, seg))
	long := cmsg(solUDP, udpGRO, seg)
	binary.LittleEndian.PutUint64(long, 1<<40) // a length past the buffer
	f.Add(long)
	f.Add(make([]byte, 16)) // a zero length
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ctrl []byte) {
		got := parseGROSegSize(ctrl)
		if got == 0 {
			return
		}
		for off := 0; off+20 <= len(ctrl); off += 8 {
			c := ctrl[off:]
			clen := binary.LittleEndian.Uint64(c)
			if clen >= 20 && clen <= uint64(len(c)) &&
				binary.LittleEndian.Uint32(c[8:]) == solUDP && binary.LittleEndian.Uint32(c[12:]) == udpGRO &&
				int(int32(binary.LittleEndian.Uint32(c[16:]))) == got {
				return
			}
		}
		t.Fatalf("segment size %d from %x, which holds no UDP_GRO cmsg carrying it", got, ctrl)
	})
}
