//go:build linux && (amd64 || arm64)

package netio

import (
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// mmsghdr mirrors the kernel's struct mmsghdr. The compiler inserts the
// same trailing padding C does (msg_len rounds the struct up to msghdr's
// alignment), so a []mmsghdr is laid out exactly like the kernel vector.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

// mmsgScratch is the reusable header/iovec/sockaddr vector behind one
// direction of an mmsgConn. Each shard owns its conn so the mutex is
// uncontended; it only guards against misuse from multiple goroutines.
type mmsgScratch struct {
	mu    sync.Mutex
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrAny
	// ctrls holds one gsoCtrlSpace-byte control buffer per slot: a
	// train's UDP_SEGMENT cmsg on transmit, the UDP_GRO cmsg on a receive
	// socket that takes trains.
	ctrls []byte

	// sendFn, the RawConn.Write callback, is bound once: a closure made
	// per call is a heap allocation per syscall. It sends hdrs[off:] and
	// leaves its results in n and errno.
	sendFn func(fd uintptr) bool
	off, n int
	errno  syscall.Errno
}

func (s *mmsgScratch) ensure(n int) {
	if cap(s.hdrs) < n {
		s.hdrs = make([]mmsghdr, n)
		s.iovs = make([]syscall.Iovec, n)
		s.names = make([]syscall.RawSockaddrAny, n)
		s.ctrls = make([]byte, n*gsoCtrlSpace)
	}
	s.hdrs = s.hdrs[:n]
	s.iovs = s.iovs[:n]
	s.names = s.names[:n]
	s.ctrls = s.ctrls[:n*gsoCtrlSpace]
}

// ownWaitBudget bounds one on-thread wait (mmsgConn), and with it how
// long an owned reader holds its P in a syscall while others want it.
const ownWaitBudget = 100 * time.Microsecond

// mmsgConn is the Linux BatchConn: recvmmsg/sendmmsg with MSG_DONTWAIT
// inside syscall.RawConn callbacks, so the runtime netpoller still parks
// the goroutine on EAGAIN and read deadlines behave exactly like
// net.UDPConn's.
//
// A reader that owns its thread (OwnThread) waits differently in one
// case. Parking a thread-locked goroutine is the dearest park Go has: the
// thread hands its P to a second one, which blocks in epoll_wait, and is
// handed it back on arrival — two futex wakes and two thread switches per
// wake-up. So directly after a read that returned data, and only then,
// such a reader blocks its own thread in ppoll(2) on the socket for at
// most ownWaitBudget (clipped to the read deadline) and reads again: the
// kernel wakes the worker itself. An idle socket, a wait that timed out
// and every other reader park in the netpoller as before, so deadlines
// and Close keep their semantics, late by at most one budget.
//
// The socket takes UDP_GRO trains when the kernel does and the slots of
// the first ReadBatch each hold the largest train (MaxTrainBytes); with
// smaller slots it keeps receiving per datagram, so no train is ever cut
// that a GRO-less socket would have delivered whole. recvmmsg still
// writes into the caller's slots. Entries before a read's first train
// stay there; from that train on, entries are copied into stage and
// handed out through split, one Message per datagram, and what does not
// fit in ms goes out at the next ReadBatch without a syscall.
type mmsgConn struct {
	udp *net.UDPConn
	rc  syscall.RawConn
	ip4 bool // socket family: true when bound to an IPv4 address
	rx  mmsgScratch
	tx  mmsgScratch
	txc txCounters

	// Receive trains, the reader's (under rx.mu): groDecided is set by the
	// first ReadBatch, split.st.gro when the socket took UDP_GRO.
	groDecided bool
	split      trainSplitter
	stage      []byte

	// owned and armed (the previous read returned data) belong to the
	// reader goroutine; deadline mirrors the read deadline in unix ns, 0
	// for none. budget is ownWaitBudget outside tests, and recvs counts
	// the recvmmsg calls for them. The two ways of waiting are counted in
	// split.st, as RxStats.ThreadWaits and Parks.
	owned, armed bool
	budget       time.Duration
	deadline     atomic.Int64
	recvs        uint64

	// recvFn is recv's RawConn.Read callback, bound once like
	// mmsgScratch.sendFn; rxFlags and rxOnThread are its arguments, rxN
	// and rxErrno its results.
	recvFn       func(fd uintptr) bool
	rxFlags, rxN int
	rxOnThread   bool
	rxErrno      syscall.Errno
}

// newMmsgConn returns the recvmmsg/sendmmsg implementation when pc is a
// real UDP socket, nil otherwise (the caller falls back).
func newMmsgConn(pc net.PacketConn) BatchConn {
	udp, ok := pc.(*net.UDPConn)
	if !ok {
		return nil
	}
	rc, err := udp.SyscallConn()
	if err != nil {
		return nil
	}
	la, _ := udp.LocalAddr().(*net.UDPAddr)
	c := &mmsgConn{udp: udp, rc: rc, ip4: la != nil && la.IP.To4() != nil, budget: ownWaitBudget}
	c.recvFn = c.recvmmsg
	return c
}

func (c *mmsgConn) LocalAddr() net.Addr { return c.udp.LocalAddr() }
func (c *mmsgConn) Close() error        { return c.udp.Close() }

func (c *mmsgConn) SetReadDeadline(t time.Time) error {
	var ns int64
	if !t.IsZero() {
		ns = t.UnixNano()
	}
	c.deadline.Store(ns)
	return c.udp.SetReadDeadline(t)
}

// OwnThread implements BatchConn.
func (c *mmsgConn) OwnThread() { c.owned = true }

// waitOnThread blocks the calling thread until fd is readable (or in
// error: the retried recvmmsg reports it) or the budget runs out, and
// reports whether a read is worth retrying.
func (c *mmsgConn) waitOnThread(fd uintptr) bool {
	wait := c.budget
	if dl := c.deadline.Load(); dl != 0 {
		wait = min(wait, time.Duration(dl-time.Now().UnixNano()))
	}
	if wait <= 0 {
		return false
	}
	c.split.st.threadWaits.Add(1)
	return pollOnThread(fd, wait)
}

// pollOnThread is the on-thread wait of both batched rungs: it blocks
// the calling thread in ppoll(2) until fd is readable or wait runs out,
// and reports whether fd became readable. The socket is the mmsg rung's
// fd, the ring the uring rung's: a ring fd is readable while its
// completion queue holds an entry.
func pollOnThread(fd uintptr, wait time.Duration) bool {
	pfd := pollFd{fd: int32(fd), events: pollIn}
	ts := syscall.NsecToTimespec(int64(wait))
	r, _, _ := syscall.Syscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&pfd)), 1,
		uintptr(unsafe.Pointer(&ts)), 0, 0, 0)
	return int(r) > 0
}

// pollFd mirrors the kernel's struct pollfd.
type pollFd struct {
	fd      int32
	events  int16
	revents int16
}

const pollIn = 0x1

// Backend names the transport rung for stats and logs.
func (c *mmsgConn) Backend() string { return "mmsg" }

func (c *mmsgConn) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	c.rx.mu.Lock()
	defer c.rx.mu.Unlock()
	// Datagrams an earlier read had no room for go first, with no
	// syscall; handing them out is a productive read like any other.
	if c.split.pending() {
		if n := c.split.deliver(ms); n > 0 {
			c.armed = true
			return n, nil
		}
	}
	if !c.groDecided {
		c.decideGRO(ms)
	}
	for {
		n, err := c.recv(ms)
		c.armed = n > 0
		if n > 0 || err != nil {
			return n, err
		}
		// Every entry was a train its slot cut to nothing: read again.
	}
}

// decideGRO turns UDP_GRO on when every slot holds the largest train and
// the kernel takes the option.
func (c *mmsgConn) decideGRO(ms []Message) {
	c.groDecided = true
	for i := range ms {
		if len(ms[i].Buf) < MaxTrainBytes {
			return
		}
	}
	var err error
	if cerr := c.rc.Control(func(fd uintptr) {
		err = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1)
	}); cerr == nil && err == nil {
		c.split.st.gro.Store(true)
	}
}

// recv is one recvmmsg into ms's slots, waiting as the package comment
// says, and returns the datagrams it filled ms with.
func (c *mmsgConn) recv(ms []Message) (int, error) {
	gro := c.split.st.gro.Load()
	c.rx.ensure(len(ms))
	for i := range ms {
		iov := &c.rx.iovs[i]
		iov.Base = &ms[i].Buf[0]
		iov.SetLen(len(ms[i].Buf))
		h := &c.rx.hdrs[i]
		h.hdr = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&c.rx.names[i])),
			Namelen: uint32(unsafe.Sizeof(c.rx.names[i])),
			Iov:     iov,
		}
		h.hdr.Iovlen = 1
		if gro {
			h.hdr.Control = &c.rx.ctrls[i*groCtrlSpace]
			h.hdr.SetControllen(groCtrlSpace)
		}
		h.n = 0
	}
	// With GRO, MSG_TRUNC makes each entry's length the payload's length
	// on the wire, so a train its slot cut is seen as cut.
	c.rxFlags = syscall.MSG_DONTWAIT
	if gro {
		c.rxFlags |= syscall.MSG_TRUNC
	}
	// At most one on-thread wait, and only after a productive read.
	c.rxOnThread = c.owned && c.armed
	if err := c.rc.Read(c.recvFn); err != nil {
		return 0, err
	}
	if c.rxErrno != 0 {
		return 0, c.rxErrno
	}
	return c.splitRead(ms, c.rxN), nil
}

// recvmmsg is recv's RawConn.Read callback: one recvmmsg into rx.hdrs,
// false to park in the netpoller.
func (c *mmsgConn) recvmmsg(fd uintptr) bool {
	for {
		c.recvs++
		r, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&c.rx.hdrs[0])), uintptr(len(c.rx.hdrs)),
			uintptr(c.rxFlags), 0, 0)
		switch errno {
		case 0:
			c.rxN, c.rxErrno = int(r), 0
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			if c.rxOnThread {
				c.rxOnThread = false
				if c.waitOnThread(fd) {
					continue
				}
			}
			c.split.st.parks.Add(1)
			return false // park in the netpoller until readable
		default:
			c.rxErrno = errno
			return true
		}
	}
}

// splitRead turns n received entries into Messages. Entries before the
// first train — every entry, without GRO — are already in their slots.
// From the first train on, the entries are copied into stage and queued
// on split, which then fills the slots from the train's own onwards.
func (c *mmsgConn) splitRead(ms []Message, n int) int {
	first := n
	for i := 0; i < n; i++ {
		full, seg := c.entry(i)
		if seg > 0 && seg < full {
			first = i
			break
		}
		ms[i].N = min(full, len(ms[i].Buf))
		ms[i].Src = sockaddrToAddrPort(&c.rx.names[i])
	}
	if first == n {
		return n
	}
	size := 0
	for i := first; i < n; i++ {
		size += min(int(c.rx.hdrs[i].n), len(ms[i].Buf))
	}
	if cap(c.stage) < size {
		c.stage = make([]byte, size)
	}
	off := 0
	for i := first; i < n; i++ {
		full, seg := c.entry(i)
		got := copy(c.stage[off:], ms[i].Buf[:min(full, len(ms[i].Buf))])
		c.split.push(c.stage[off:off+got], full, seg, sockaddrToAddrPort(&c.rx.names[i]), 0)
		off += got
	}
	return first + c.split.deliver(ms[first:])
}

// entry reads received entry i: its length (on the wire with GRO's
// MSG_TRUNC, as copied without) and its UDP_GRO segment size, 0 for a
// plain datagram.
func (c *mmsgConn) entry(i int) (full, seg int) {
	h := &c.rx.hdrs[i]
	if cl := int(h.hdr.Controllen); cl > 0 {
		ctrl := c.rx.ctrls[i*groCtrlSpace:]
		seg = parseGROSegSize(ctrl[:min(cl, groCtrlSpace)])
	}
	return int(h.n), seg
}

// RxStats implements RxStatser.
func (c *mmsgConn) RxStats() RxStats { return c.split.st.snapshot() }

func (c *mmsgConn) WriteBatch(ms []Message) (int, error) {
	return writeBatchGSO(c.rc, &c.tx, &c.txc, ms, c.ip4)
}

// TxStats implements TxStatser.
func (c *mmsgConn) TxStats() TxStats { return c.txc.snapshot() }

// writeBatchGSO is the whole transmit side of both batched rungs, mmsg
// and uring: sendmmsg with a UDP_SEGMENT cmsg on each train message,
// plus a graceful per-datagram retry when the kernel rejects one
// specific train (st records what actually happened, so a fallback
// never masquerades as a coalesced send).
func writeBatchGSO(rc syscall.RawConn, tx *mmsgScratch, st *txCounters, ms []Message, ip4 bool) (int, error) {
	sent := 0
	for sent < len(ms) {
		n, err := sendmmsgBatch(rc, tx, ms[sent:], ip4)
		countTrains(st, ms[sent:sent+n])
		sent += n
		if err == nil {
			return sent, nil
		}
		// ms[sent] is the message the kernel refused. A refused train is
		// unrolled and re-sent segment by segment — identical bytes on
		// the wire, no UDP_SEGMENT — so a kernel or path that rejects
		// one send shape degrades per message, not per socket.
		if m := &ms[sent]; m.SegSize > 0 && m.SegSize < m.N {
			if ferr := sendTrainSplit(rc, tx, m, ip4); ferr != nil {
				return sent, ferr
			}
			st.fallbacks.Add(1)
			sent++
			continue
		}
		return sent, err
	}
	return sent, nil
}

// countTrains credits the trains in a successfully sent run.
func countTrains(st *txCounters, ms []Message) {
	for i := range ms {
		if segs := ms[i].Segments(); segs > 1 {
			st.trains.Add(1)
			st.trainSegs.Add(uint64(segs))
		}
	}
}

// sendTrainSplit unrolls one train into per-datagram sends through the
// same sendmmsg loop. The segment vector lives on the stack: a train
// carries at most MaxTrainSegs segments.
func sendTrainSplit(rc syscall.RawConn, tx *mmsgScratch, m *Message, ip4 bool) error {
	var segbuf [MaxTrainSegs]Message
	segs := segbuf[:0]
	for off := 0; off < m.N; off += m.SegSize {
		end := min(off+m.SegSize, m.N)
		segs = append(segs, Message{Buf: m.Buf[off:end], N: end - off, Src: m.Src})
		if len(segs) == cap(segs) || end == m.N {
			if _, err := sendmmsgBatch(rc, tx, segs, ip4); err != nil {
				return err
			}
			segs = segs[:0]
		}
	}
	return nil
}

// sendmmsgBatch flushes ms through a sendmmsg(2) loop on rc's fd using
// tx's reusable header vector, parking in the netpoller on EAGAIN.
func sendmmsgBatch(rc syscall.RawConn, tx *mmsgScratch, ms []Message, ip4 bool) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	tx.ensure(len(ms))
	for i := range ms {
		m := &ms[i]
		iov := &tx.iovs[i]
		iov.Base = nil
		if m.N > 0 {
			iov.Base = &m.Buf[0]
		}
		iov.SetLen(m.N)
		h := &tx.hdrs[i]
		h.hdr = syscall.Msghdr{Iov: iov}
		h.hdr.Iovlen = 1
		h.n = 0
		if m.Src.IsValid() {
			h.hdr.Name = (*byte)(unsafe.Pointer(&tx.names[i]))
			h.hdr.Namelen = putSockaddr(&tx.names[i], m.Src, ip4)
		}
		if m.SegSize > 0 && m.SegSize < m.N {
			ctrl := tx.ctrls[i*gsoCtrlSpace : (i+1)*gsoCtrlSpace]
			putGSOControl(ctrl, uint16(m.SegSize))
			h.hdr.Control = &ctrl[0]
			h.hdr.SetControllen(gsoCtrlSpace)
		}
	}
	if tx.sendFn == nil {
		tx.sendFn = tx.send
	}
	sent := 0
	for sent < len(ms) {
		tx.off = sent
		if err := rc.Write(tx.sendFn); err != nil {
			return sent, err
		}
		if tx.errno != 0 {
			return sent, tx.errno
		}
		if tx.n == 0 {
			break // defensive: the kernel reported progress of zero
		}
		sent += tx.n
	}
	return sent, nil
}

// send is the RawConn.Write callback of sendmmsgBatch: one sendmmsg of
// hdrs[off:], false on EAGAIN to park in the netpoller.
func (s *mmsgScratch) send(fd uintptr) bool {
	for {
		r, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&s.hdrs[s.off])), uintptr(len(s.hdrs)-s.off),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		switch errno {
		case 0:
			s.n, s.errno = int(r), 0
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			s.errno = errno
			return true
		}
	}
}

// putSockaddr encodes ap into sa with the socket's family, returning the
// sockaddr length. The port bytes are written explicitly (network byte
// order) so the encoding is endianness-independent.
func putSockaddr(sa *syscall.RawSockaddrAny, ap netip.AddrPort, ip4 bool) uint32 {
	port := ap.Port()
	if ip4 {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		*sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: ap.Addr().Unmap().As4()}
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		p[0], p[1] = byte(port>>8), byte(port)
		return syscall.SizeofSockaddrInet4
	}
	sa6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
	*sa6 = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: ap.Addr().As16()}
	p := (*[2]byte)(unsafe.Pointer(&sa6.Port))
	p[0], p[1] = byte(port>>8), byte(port)
	return syscall.SizeofSockaddrInet6
}

func sockaddrToAddrPort(sa *syscall.RawSockaddrAny) netip.AddrPort {
	switch sa.Addr.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), uint16(p[0])<<8|uint16(p[1]))
	case syscall.AF_INET6:
		sa6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
		p := (*[2]byte)(unsafe.Pointer(&sa6.Port))
		return netip.AddrPortFrom(netip.AddrFrom16(sa6.Addr).Unmap(), uint16(p[0])<<8|uint16(p[1]))
	}
	return netip.AddrPort{}
}
