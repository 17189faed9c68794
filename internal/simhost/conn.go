package simhost

import (
	"net"
	"net/netip"
	"os"
	"time"

	"incod/internal/netio"
	"incod/internal/simnet"
)

// MaxDatagram is the longest payload a node takes. The longest simnet
// carries is an ETC-size memcached SET, whose value is at most 1 KiB. A
// node drops a longer one whole, counted in its Stats, rather than hand
// its engine a truncated datagram.
const MaxDatagram = 2 << 10

// peer is a sender as simnet names it.
type peer struct {
	addr             simnet.Addr
	srcPort, dstPort uint16
}

// conn is a node's engine transport, a netio.BatchConn over simnet:
// ReadBatch returns what was delivered since the last turn, WriteBatch
// puts the replies on the node's outbox. The engine drops a datagram
// without a valid source, so each sender gets a made-up one, 10.0.0.0/8
// in order of first appearance (room for 2^24), which routes its replies
// back.
type conn struct {
	n     *Node
	rx    []*simnet.Packet // delivered; rx[:head] already read
	head  int
	addrs map[peer]netip.AddrPort
	peers map[netip.AddrPort]peer
}

func (c *conn) ReadBatch(ms []netio.Message) (k int, err error) {
	for ; k < len(ms) && c.head < len(c.rx); k++ {
		pkt := c.rx[c.head]
		c.head++
		ms[k].N, ms[k].Src = copy(ms[k].Buf, pkt.Payload), c.source(pkt)
	}
	if c.head == len(c.rx) {
		c.rx, c.head = c.rx[:0], 0
	}
	if k == 0 {
		return 0, os.ErrDeadlineExceeded // nothing delivered: a socket would block
	}
	return k, nil
}

func (c *conn) WriteBatch(ms []netio.Message) (int, error) {
	for _, m := range ms {
		p := c.peers[m.Src]
		c.n.outbox = append(c.n.outbox, &simnet.Packet{Src: c.n.addr, Dst: p.addr, SrcPort: p.dstPort, DstPort: p.srcPort,
			Payload: append([]byte(nil), m.Buf[:m.N]...)}) // the engine reuses its reply buffers
	}
	return len(ms), nil
}

func (c *conn) source(pkt *simnet.Packet) netip.AddrPort {
	p := peer{pkt.Src, pkt.SrcPort, pkt.DstPort}
	a, ok := c.addrs[p]
	if !ok {
		i := len(c.addrs) + 1
		a = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 1)
		c.addrs[p], c.peers[a] = a, p
	}
	return a
}

func (*conn) SetReadDeadline(time.Time) error { return nil }
func (*conn) OwnThread()                      {}
func (*conn) LocalAddr() net.Addr             { return nil } // a node has no socket
func (*conn) Close() error                    { return nil }
