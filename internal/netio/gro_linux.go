//go:build linux && (amd64 || arm64)

package netio

import (
	"encoding/binary"
	"net/netip"
)

// groCtrlSpace is CMSG_SPACE(sizeof(int)), the room one UDP_GRO cmsg
// takes: the same 24 bytes as a UDP_SEGMENT one, so the mmsg rung's
// per-slot control buffers serve both directions.
const groCtrlSpace = gsoCtrlSpace

// parseGROSegSize walks a received control region for the UDP_GRO cmsg
// and returns its segment size (0 when absent: the payload is one plain
// datagram). Layout per struct cmsghdr: u64 len, i32 level, i32 type,
// data, 8-byte aligned.
func parseGROSegSize(ctrl []byte) int {
	for len(ctrl) >= 16 {
		clen := int(binary.LittleEndian.Uint64(ctrl))
		if clen < 16 || clen > len(ctrl) {
			return 0
		}
		level := int32(binary.LittleEndian.Uint32(ctrl[8:]))
		typ := int32(binary.LittleEndian.Uint32(ctrl[12:]))
		if level == solUDP && typ == udpGRO && clen >= 20 {
			return int(int32(binary.LittleEndian.Uint32(ctrl[16:])))
		}
		adv := (clen + 7) &^ 7
		if adv <= 0 || adv > len(ctrl) {
			return 0
		}
		ctrl = ctrl[adv:]
	}
	return 0
}

// rxEntry is one received payload waiting in a splitter. buf holds the
// bytes the kernel copied; end is how many of them leave — all of a
// plain datagram, the whole segments of a train — and off how many
// already have. seg is the train's segment size, 0 for a datagram.
type rxEntry struct {
	buf           []byte
	seg, end, off int
	src           netip.AddrPort
	id            uint16
}

// trainSplitter is the receive queue both batched rungs deliver through.
// It owns the payloads pushed to it until they leave: it hands them out
// in arrival order, one Message per datagram, stops when the caller's
// slots are full and carries on at the next deliver. A train the
// receive buffer cut gives up the segments it does not hold whole —
// never a fragment — and counts them. release, when set, is called with
// an entry's id once its last segment has left (the uring rung recycles
// the provided buffer then). The caller serializes every method but
// the counters' reads.
type trainSplitter struct {
	q       []rxEntry
	head    int
	release func(id uint16)
	st      rxCounters
}

// push queues one received payload: buf is what the kernel copied, full
// the payload's length on the wire (> len(buf) when the buffer cut it)
// and seg its UDP_GRO segment size (0 when the payload is one datagram).
func (s *trainSplitter) push(buf []byte, full, seg int, src netip.AddrPort, id uint16) {
	e := rxEntry{buf: buf, end: len(buf), src: src, id: id}
	if seg > 0 && seg < full {
		segs := (full + seg - 1) / seg
		whole := segs
		if len(buf) < full {
			// Only the last segment may be short, and it is the one cut.
			whole = len(buf) / seg
		}
		e.seg, e.end = seg, min(whole*seg, full)
		s.st.trains.Add(1)
		s.st.trainSegs.Add(uint64(segs))
		if whole < segs {
			s.st.cutSegs.Add(uint64(segs - whole))
		}
	}
	s.q = append(s.q, e)
}

// pending reports whether a queued payload still has datagrams to hand
// out (or a cut train still waits to be released).
func (s *trainSplitter) pending() bool { return s.head < len(s.q) }

// deliver copies queued datagrams into ms in arrival order and returns
// how many it filled.
func (s *trainSplitter) deliver(ms []Message) int {
	n := 0
	for n < len(ms) && s.head < len(s.q) {
		e := &s.q[s.head]
		if e.seg == 0 { // a plain datagram, possibly empty
			ms[n].N = copy(ms[n].Buf, e.buf)
			ms[n].Src = e.src
			n++
		} else {
			for n < len(ms) && e.off < e.end {
				next := min(e.off+e.seg, e.end)
				ms[n].N = copy(ms[n].Buf, e.buf[e.off:next])
				ms[n].Src = e.src
				e.off = next
				n++
			}
			if e.off < e.end {
				break // ms is full mid-train; resume here next call
			}
		}
		s.head++
		if s.release != nil {
			s.release(e.id)
		}
	}
	if s.head == len(s.q) {
		s.q = s.q[:0]
		s.head = 0
	}
	return n
}
