//go:build linux && (amd64 || arm64)

package netio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The io_uring backend: a receive rung. One multishot RECVMSG stays
// armed on the socket, filling completions from a registered
// provided-buffer ring — the kernel picks a buffer per datagram and
// posts a CQE, so a loaded socket is drained from the mmap'd completion
// queue with no syscall at all. Everything it sends, plain datagrams and
// GSO trains alike, goes through the mmsg rung's sendmmsg path
// (writeBatchGSO): a train leaves as one UDP_SEGMENT send straight from
// the caller's buffer, and a train the kernel refuses is unrolled.
//
// The ring needs Linux 6.0 for multishot RECVMSG, and with it features
// every such kernel has: the provided-buffer ring, COOP_TASKRUN, a
// single SQ/CQ mapping and a CQ eventfd the netpoller can wait on. A
// kernel missing any of them fails NewUringConn with
// ErrUringUnsupported, and callers fall back to mmsg; no older-kernel
// variant of any step is kept.
//
// Everything is raw syscalls against the standard library only —
// io_uring_setup/io_uring_enter/io_uring_register share one number on
// every 64-bit Linux architecture.

// io_uring syscall numbers (post asm-generic unification, identical on
// amd64 and arm64).
const (
	sysIoUringSetup    = 425
	sysIoUringEnter    = 426
	sysIoUringRegister = 427
)

const (
	opRecvmsg = 10 // IORING_OP_RECVMSG

	sqeBufferSelect   = 1 << 5 // IOSQE_BUFFER_SELECT
	ioprioRecvMultish = 1 << 1 // IORING_RECV_MULTISHOT (in sqe.ioprio)

	cqeFBuffer     = 1 << 0 // IORING_CQE_F_BUFFER: flags carry a buffer id
	cqeFMore       = 1 << 1 // IORING_CQE_F_MORE: the multishot is still armed
	cqeBufferShift = 16

	cqEventfdDisabled = 1 << 0 // IORING_CQ_EVENTFD_DISABLED (CQ ring flags)

	setupCQSize      = 1 << 3 // IORING_SETUP_CQSIZE
	setupClamp       = 1 << 4 // IORING_SETUP_CLAMP
	setupCoopTaskrun = 1 << 8 // IORING_SETUP_COOP_TASKRUN

	featSingleMmap = 1 << 0 // IORING_FEAT_SINGLE_MMAP

	offSQRing = 0
	offSQEs   = 0x10000000

	regEventfd  = 4  // IORING_REGISTER_EVENTFD
	regPbufRing = 22 // IORING_REGISTER_PBUF_RING
)

// sqringOffsets / cqringOffsets / uringParams mirror the kernel ABI
// structs io_sqring_offsets, io_cqring_offsets, io_uring_params.
type sqringOffsets struct {
	head, tail, ringMask, ringEntries uint32
	flags, dropped, array, resv1      uint32
	userAddr                          uint64
}

type cqringOffsets struct {
	head, tail, ringMask, ringEntries uint32
	overflow, cqes, flags, resv1      uint32
	userAddr                          uint64
}

type uringParams struct {
	sqEntries    uint32
	cqEntries    uint32
	flags        uint32
	sqThreadCPU  uint32
	sqThreadIdle uint32
	features     uint32
	wqFd         uint32
	resv         [3]uint32
	sqOff        sqringOffsets
	cqOff        cqringOffsets
}

// uringSQE is struct io_uring_sqe (64 bytes).
type uringSQE struct {
	opcode      uint8
	flags       uint8
	ioprio      uint16
	fd          int32
	off         uint64
	addr        uint64
	len         uint32
	opFlags     uint32 // msg_flags for RECVMSG
	userData    uint64
	bufGroup    uint16 // union buf_index / buf_group
	personality uint16
	spliceFdIn  int32
	addr3       uint64
	_pad2       uint64
}

// uringCQE is struct io_uring_cqe (16 bytes).
type uringCQE struct {
	userData uint64
	res      int32
	flags    uint32
}

// uringBuf is struct io_uring_buf (16 bytes); the provided-buffer ring
// is an array of these, with the ring tail overlaid on entry 0's resv
// field (offset 14) per the io_uring_buf_ring union.
type uringBuf struct {
	addr uint64
	len  uint32
	bid  uint16
	resv uint16
}

// uringBufReg is struct io_uring_buf_reg, the IORING_REGISTER_PBUF_RING
// argument.
type uringBufReg struct {
	ringAddr    uint64
	ringEntries uint32
	bgid        uint16
	flags       uint16
	resv        [3]uint64
}

// recvmsgOutSize is sizeof(struct io_uring_recvmsg_out), the header a
// multishot RECVMSG completion writes at the start of its provided
// buffer, ahead of the (reserved-size) source address and the payload.
const recvmsgOutSize = 16

// nameSpace is the per-buffer space reserved for the datagram's source
// sockaddr, fixed at sizeof(struct sockaddr_storage)-ish via
// RawSockaddrAny like the rest of this package.
const nameSpace = int(unsafe.Sizeof(syscall.RawSockaddrAny{}))

// uringConn is the io_uring BatchConn. The ring carries the receive
// direction only; WriteBatch is the mmsg rung's sendmmsg path on its own
// lock and never takes the ring mutex, so ReadBatch and WriteBatch run
// concurrently (the loadgen splits a conn that way: a dedicated receiver
// plus a sender). The mutex guards all ring state but is never held
// across a blocking wait — waits happen with the lock dropped so Close
// stays prompt.
type uringConn struct {
	mu sync.Mutex

	pc  net.PacketConn
	rc  syscall.RawConn
	fd  int
	ip4 bool

	ringFd    int
	ringMem   []byte // SQ and CQ rings, one mapping (IORING_FEAT_SINGLE_MMAP)
	sqeMem    []byte
	sqEntries uint32

	kSQHead *uint32
	kSQTail *uint32
	sqMask  uint32
	sqArray []uint32
	sqes    []uringSQE
	sqTail  uint32 // our cached tail, pushed to *kSQTail on flush

	kCQHead  *uint32
	kCQTail  *uint32
	kCQFlags *uint32 // user-writable: IORING_CQ_EVENTFD_DISABLED
	cqMask   uint32
	cqes     []uringCQE

	// Provided-buffer ring: entries in bufRingMem (page-aligned mmap,
	// registered with the kernel), data buffers in slab. bufTail is our
	// cached tail; the kernel-visible tail lives at bufRingMem[14].
	bufRingMem []byte
	bufEntries []uringBuf
	bufMask    uint16
	bufTail    uint16
	slab       []byte
	bufStride  int
	nBufs      int
	claimed    int // buffers held by pending completions
	fence      atomic.Uint32

	// Receive-side UDP GRO: when the socket takes it, ctrlSpace bytes of
	// each provided buffer hold the UDP_GRO cmsg. Every completion is
	// queued on split, which owns its buffer until the last datagram has
	// been delivered and then hands it back through recycle.
	ctrlSpace int
	split     trainSplitter

	// Multishot recv state. rcvHdr must stay reachable while armed.
	rcvHdr    syscall.Msghdr
	recvArmed bool
	everArmed bool
	recvErr   syscall.Errno

	// Transmit side: the mmsg rung's reusable sendmmsg header vector
	// (mmsgScratch carries its own mutex) and its train counters.
	tx  mmsgScratch
	txc txCounters

	// CQ-ready eventfd, registered with the ring and parked on through
	// the Go netpoller: an idle ReadBatch, and every read of a goroutine
	// that does not own its thread, blocks the goroutine, not an OS
	// thread. A thread blocked in a syscall holds its P until sysmon
	// retakes it, and when cores are scarce that P is the one the peers
	// whose traffic produces the next completion need. Only an owned
	// reader, directly after a productive read, waits on its thread
	// instead (waitOnThread), and only until its read deadline. Setup
	// checks that the eventfd is pollable, so read deadlines work.
	evFile    *os.File
	evScratch [8]byte

	// owned and armed (the previous ReadBatch returned data) belong to
	// the reader goroutine; deadline is the read deadline in unix ns, 0
	// for none.
	owned, armed bool
	deadline     atomic.Int64
	closed       atomic.Bool
	waiters      atomic.Int32 // threads inside a lockless on-thread wait

	resubmits uint64
	starved   uint64
	enters    atomic.Uint64
}

// recvTag is the user_data of the multishot RECVMSG, the one request the
// ring ever carries.
const recvTag = uint64(1) << 63

// NewUringConn builds the io_uring BatchConn over pc, which must be a
// real *net.UDPConn. The conn takes ownership: Close tears down the
// ring first and the socket second. The ring serves the receive
// direction only (multishot RECVMSG into a provided-buffer ring);
// WriteBatch is the mmsg rung's sendmmsg path, trains included. On
// kernels without the needed features it fails with an error wrapping
// ErrUringUnsupported; callers degrade to NewBatchConn.
func NewUringConn(pc net.PacketConn, cfg UringConfig) (BatchConn, error) {
	udp, ok := pc.(*net.UDPConn)
	if !ok {
		return nil, fmt.Errorf("netio: uring backend needs a *net.UDPConn, got %T", pc)
	}
	cfg = cfg.withDefaults()
	rc, err := udp.SyscallConn()
	if err != nil {
		return nil, err
	}
	c := &uringConn{pc: pc, rc: rc, ringFd: -1}
	if err := rc.Control(func(fd uintptr) { c.fd = int(fd) }); err != nil {
		return nil, err
	}
	la, _ := udp.LocalAddr().(*net.UDPAddr)
	c.ip4 = la != nil && la.IP.To4() != nil

	// Receive-side GRO: a GSO sender's whole train then arrives as one
	// coalesced completion (one poll wake, one CQE, one copy) instead of
	// one per datagram. Kernels without UDP_GRO just leave it off.
	if syscall.SetsockoptInt(c.fd, solUDP, udpGRO, 1) == nil {
		c.split.st.gro.Store(true)
		c.ctrlSpace = groCtrlSpace
	}
	c.split.release = c.recycle

	ok = false
	defer func() {
		if !ok {
			c.teardown()
		}
	}()

	// CQ must absorb a completion per provided buffer, with headroom, or
	// the multishot overflows between reaps. COOP_TASKRUN defers
	// completion task-work to the ring owner's next enter instead of
	// interrupting it per datagram — a measurable win when cores are
	// scarce.
	p := uringParams{
		flags:     setupClamp | setupCQSize | setupCoopTaskrun,
		cqEntries: uint32(2 * (cfg.Buffers + cfg.Entries)),
	}
	rfd, _, errno := syscall.Syscall(sysIoUringSetup, uintptr(cfg.Entries), uintptr(unsafe.Pointer(&p)), 0)
	if errno != 0 {
		return nil, fmt.Errorf("%w: io_uring_setup: %v", ErrUringUnsupported, errno)
	}
	c.ringFd = int(rfd)
	if p.features&featSingleMmap == 0 {
		return nil, fmt.Errorf("%w: no IORING_FEAT_SINGLE_MMAP", ErrUringUnsupported)
	}
	c.sqEntries = p.sqEntries

	sqSize := int(p.sqOff.array) + int(p.sqEntries)*4
	cqSize := int(p.cqOff.cqes) + int(p.cqEntries)*int(unsafe.Sizeof(uringCQE{}))
	if c.ringMem, err = syscall.Mmap(c.ringFd, offSQRing, max(sqSize, cqSize),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE); err != nil {
		return nil, fmt.Errorf("netio: uring sq/cq mmap: %w", err)
	}
	if c.sqeMem, err = syscall.Mmap(c.ringFd, offSQEs, int(p.sqEntries)*int(unsafe.Sizeof(uringSQE{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE); err != nil {
		return nil, fmt.Errorf("netio: uring sqe mmap: %w", err)
	}

	c.kSQHead = (*uint32)(unsafe.Pointer(&c.ringMem[p.sqOff.head]))
	c.kSQTail = (*uint32)(unsafe.Pointer(&c.ringMem[p.sqOff.tail]))
	c.sqMask = *(*uint32)(unsafe.Pointer(&c.ringMem[p.sqOff.ringMask]))
	c.sqArray = unsafe.Slice((*uint32)(unsafe.Pointer(&c.ringMem[p.sqOff.array])), p.sqEntries)
	c.sqes = unsafe.Slice((*uringSQE)(unsafe.Pointer(&c.sqeMem[0])), p.sqEntries)
	for i := range c.sqArray {
		c.sqArray[i] = uint32(i) // identity map: slot i submits sqes[i]
	}
	c.sqTail = atomic.LoadUint32(c.kSQTail)

	c.kCQHead = (*uint32)(unsafe.Pointer(&c.ringMem[p.cqOff.head]))
	c.kCQTail = (*uint32)(unsafe.Pointer(&c.ringMem[p.cqOff.tail]))
	c.kCQFlags = (*uint32)(unsafe.Pointer(&c.ringMem[p.cqOff.flags]))
	c.cqMask = *(*uint32)(unsafe.Pointer(&c.ringMem[p.cqOff.ringMask]))
	c.cqes = unsafe.Slice((*uringCQE)(unsafe.Pointer(&c.ringMem[p.cqOff.cqes])), p.cqEntries)

	if err := c.setupBufRing(cfg); err != nil {
		return nil, err
	}
	if err := c.setupEventfd(); err != nil {
		return nil, err
	}

	// Arm the multishot receive and hand it to the kernel now, so the
	// first ReadBatch starts with the socket already being drained. The
	// msghdr is a template: Namelen/Controllen are per-buffer budgets
	// carved out of each provided buffer, not userspace pointers.
	c.rcvHdr = syscall.Msghdr{Namelen: uint32(nameSpace), Controllen: uint64(c.ctrlSpace)}
	if err := c.armRecv(); err != nil {
		return nil, err
	}
	if err := c.submit(); err != nil {
		return nil, fmt.Errorf("%w: arming multishot recvmsg: %v", ErrUringUnsupported, err)
	}
	ok = true
	return c, nil
}

func (c *uringConn) setupBufRing(cfg UringConfig) error {
	n := cfg.Buffers
	ringBytes := (n*int(unsafe.Sizeof(uringBuf{})) + syscall.Getpagesize() - 1) &^ (syscall.Getpagesize() - 1)
	mem, err := syscall.Mmap(-1, 0, ringBytes,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANONYMOUS|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("netio: uring buf-ring mmap: %w", err)
	}
	c.bufRingMem = mem
	reg := uringBufReg{
		ringAddr:    uint64(uintptr(unsafe.Pointer(&mem[0]))),
		ringEntries: uint32(n),
		bgid:        0,
	}
	if _, _, errno := syscall.Syscall6(sysIoUringRegister, uintptr(c.ringFd),
		regPbufRing, uintptr(unsafe.Pointer(&reg)), 1, 0, 0); errno != 0 {
		return fmt.Errorf("%w: IORING_REGISTER_PBUF_RING: %v", ErrUringUnsupported, errno)
	}
	c.bufEntries = unsafe.Slice((*uringBuf)(unsafe.Pointer(&mem[0])), n)
	c.bufMask = uint16(n - 1)
	c.nBufs = n
	c.bufStride = recvmsgOutSize + nameSpace + c.ctrlSpace + cfg.BufSize
	slab, err := syscall.Mmap(-1, 0, n*c.bufStride,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANONYMOUS|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("netio: uring buffer slab mmap: %w", err)
	}
	c.slab = slab
	for i := 0; i < n; i++ {
		c.provideBuf(uint16(i))
	}
	c.publishBufTail()
	return nil
}

// provideBuf stages buffer bid at the ring tail; publishBufTail makes
// the staged entries visible to the kernel. Only addr/len/bid are
// written — entry 0's resv field doubles as the ring tail and must
// never be touched by an add.
func (c *uringConn) provideBuf(bid uint16) {
	e := &c.bufEntries[c.bufTail&c.bufMask]
	e.addr = uint64(uintptr(unsafe.Pointer(&c.slab[int(bid)*c.bufStride])))
	e.len = uint32(c.bufStride)
	e.bid = bid
	c.bufTail++
}

// publishBufTail store-releases the buffer-ring tail. sync/atomic has
// no 16-bit store, and the tail straddles no 4-byte boundary we could
// widen, so order the entry writes ahead of the plain tail store with a
// full RMW barrier (LOCK XADD / LDADDAL are two-way fences on the
// architectures this file builds for).
func (c *uringConn) publishBufTail() {
	c.fence.Add(0)
	*(*uint16)(unsafe.Pointer(&c.bufRingMem[14])) = c.bufTail
}

// setupEventfd registers a nonblocking eventfd as the ring's CQ-ready
// notifier and wraps it in an os.File, which the runtime adds to the
// netpoller (eventfds are pollable). ReadBatch then waits for
// completions the way every other conn in this package waits for the
// socket: goroutine parked, OS thread and P free. A ring that cannot
// take it is unsupported; teardown closes the file.
func (c *uringConn) setupEventfd() error {
	efd, _, errno := syscall.Syscall(sysEventfd2, 0,
		uintptr(syscall.O_NONBLOCK|syscall.O_CLOEXEC), 0)
	if errno != 0 {
		return fmt.Errorf("%w: eventfd2: %v", ErrUringUnsupported, errno)
	}
	c.evFile = os.NewFile(efd, "uring-cq-eventfd")
	fd32 := int32(efd)
	if _, _, errno := syscall.Syscall6(sysIoUringRegister, uintptr(c.ringFd),
		regEventfd, uintptr(unsafe.Pointer(&fd32)), 1, 0, 0); errno != 0 {
		return fmt.Errorf("%w: IORING_REGISTER_EVENTFD: %v", ErrUringUnsupported, errno)
	}
	// Deadlines only work when the runtime registered the fd with the
	// netpoller.
	if err := c.evFile.SetReadDeadline(time.Time{}); err != nil {
		return fmt.Errorf("%w: CQ eventfd not pollable: %v", ErrUringUnsupported, err)
	}
	// Signal suppression (the NAPI trick): keep the eventfd quiet while
	// the reader is actively draining, so senders don't pay a wakeup per
	// datagram; ReadBatch re-enables it only on the edge of parking.
	atomic.StoreUint32(c.kCQFlags, cqEventfdDisabled)
	return nil
}

// nextSQE claims the next submission slot, flushing to the kernel first
// when the ring is full.
func (c *uringConn) nextSQE() (*uringSQE, error) {
	for c.sqTail-atomic.LoadUint32(c.kSQHead) >= c.sqEntries {
		if err := c.submit(); err != nil {
			return nil, err
		}
	}
	sqe := &c.sqes[c.sqTail&c.sqMask]
	*sqe = uringSQE{}
	c.sqTail++
	return sqe, nil
}

// armRecv queues the multishot RECVMSG SQE. The actual submission
// happens at the next submit.
func (c *uringConn) armRecv() error {
	sqe, err := c.nextSQE()
	if err != nil {
		return err
	}
	sqe.opcode = opRecvmsg
	sqe.flags = sqeBufferSelect
	sqe.ioprio = ioprioRecvMultish
	sqe.fd = int32(c.fd)
	sqe.addr = uint64(uintptr(unsafe.Pointer(&c.rcvHdr)))
	sqe.len = 1
	// MSG_TRUNC makes payloadlen the payload's length on the wire, so a
	// completion its buffer cut is seen as cut.
	sqe.opFlags = syscall.MSG_TRUNC
	sqe.bufGroup = 0
	sqe.userData = recvTag
	c.recvArmed = true
	if c.everArmed {
		c.resubmits++
	}
	c.everArmed = true
	return nil
}

// toSubmit derives the unsubmitted SQE count from the ring itself, so a
// partially-consumed submission (EINTR mid-enter) self-corrects.
func (c *uringConn) toSubmit() uint32 {
	return c.sqTail - atomic.LoadUint32(c.kSQHead)
}

// submit pushes queued SQEs to the kernel without waiting.
func (c *uringConn) submit() error {
	atomic.StoreUint32(c.kSQTail, c.sqTail)
	for {
		n := c.toSubmit()
		if n == 0 {
			return nil
		}
		c.enters.Add(1)
		_, _, errno := syscall.Syscall6(sysIoUringEnter, uintptr(c.ringFd),
			uintptr(n), 0, 0, 0, 0)
		switch errno {
		case 0:
			return nil
		case syscall.EINTR:
			continue
		case syscall.EBUSY:
			// CQ is saturated; reap and retry.
			c.reap()
			continue
		default:
			return fmt.Errorf("netio: io_uring_enter(submit): %v", errno)
		}
	}
}

// reap drains the completion queue: multishot receives are parsed onto
// the splitter (their provided buffer stays claimed until delivery).
// Anything else is skipped defensively.
func (c *uringConn) reap() {
	head := atomic.LoadUint32(c.kCQHead)
	tail := atomic.LoadUint32(c.kCQTail)
	for ; head != tail; head++ {
		if cqe := c.cqes[head&c.cqMask]; cqe.userData == recvTag {
			c.reapRecv(&cqe)
		}
	}
	atomic.StoreUint32(c.kCQHead, head)
}

func (c *uringConn) reapRecv(cqe *uringCQE) {
	if cqe.flags&cqeFMore == 0 {
		c.recvArmed = false
	}
	if cqe.res < 0 {
		errno := syscall.Errno(-cqe.res)
		switch errno {
		case syscall.ENOBUFS:
			// The consumer fell a whole buffer ring behind; re-armed
			// once buffers are recycled.
			c.starved++
		case syscall.EINTR, syscall.EAGAIN:
			// Transient; the rearm in ReadBatch retries.
		default:
			c.recvErr = errno
		}
		return
	}
	if cqe.flags&cqeFBuffer == 0 {
		return // defensive: a data CQE without a buffer id carries nothing
	}
	bid := uint16(cqe.flags >> cqeBufferShift)
	base := c.slab[int(bid)*c.bufStride:]
	// payloadlen is the payload's length on the wire, even when the
	// buffer cut it; the splitter delivers only what arrived whole.
	full := int(binary.LittleEndian.Uint32(base[8:]))
	payloadOff := recvmsgOutSize + nameSpace + c.ctrlSpace
	got := min(full, c.bufStride-payloadOff)
	seg := 0
	if controllen := int(binary.LittleEndian.Uint32(base[4:])); controllen > 0 {
		seg = parseGROSegSize(base[recvmsgOutSize+nameSpace : recvmsgOutSize+nameSpace+min(controllen, c.ctrlSpace)])
	}
	src := sockaddrToAddrPort((*syscall.RawSockaddrAny)(unsafe.Pointer(&base[recvmsgOutSize])))
	c.split.push(base[payloadOff:payloadOff+got], full, seg, src, bid)
	c.claimed++
}

// recycle is the splitter's release hook: a provided buffer goes back to
// the ring once its last datagram has been delivered.
func (c *uringConn) recycle(bid uint16) {
	c.provideBuf(bid)
	c.claimed--
}

// deliver hands queued completions out through the splitter and
// publishes the buffers it recycled.
func (c *uringConn) deliver(ms []Message) int {
	tail := c.bufTail
	n := c.split.deliver(ms)
	if c.bufTail != tail {
		c.publishBufTail()
	}
	return n
}

// ReadBatch hands out what the completion queue holds, and waits for
// more when it holds nothing: directly after a productive read, a reader
// that owns its thread waits on it (waitOnThread), with eventfd signals
// still suppressed; every other wait parks on the CQ eventfd.
func (c *uringConn) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	n, err := c.read(ms, c.owned && c.armed)
	c.armed = n > 0
	return n, err
}

// read is ReadBatch's loop; onThread allows its one on-thread wait.
func (c *uringConn) read(ms []Message, onThread bool) (int, error) {
	for {
		if c.closed.Load() {
			return 0, net.ErrClosed
		}
		c.mu.Lock()
		if c.closed.Load() {
			// Close won the race while we were waiting for the lock; the
			// ring memory is gone.
			c.mu.Unlock()
			return 0, net.ErrClosed
		}
		// Actively draining: suppress eventfd signals so senders don't
		// pay a wakeup per datagram they complete into the CQ.
		atomic.StoreUint32(c.kCQFlags, cqEventfdDisabled)
		c.reap()
		if c.recvErr != 0 {
			err := c.recvErr
			c.recvErr = 0
			_ = c.rearmIfPossible()
			c.mu.Unlock()
			return 0, err
		}
		if c.split.pending() {
			n := c.deliver(ms)
			// Recycling may have made a starved multishot armable again;
			// queue and push it before handing data back. An arm error
			// resurfaces on the next call — data first.
			_ = c.rearmIfPossible()
			c.mu.Unlock()
			if n > 0 {
				return n, nil
			}
			continue // only trains cut to nothing were queued
		}
		err := c.rearmIfPossible()
		if err == nil && onThread {
			// Signals stay suppressed: the wait watches the CQ itself.
			onThread = false
			c.mu.Unlock()
			c.waitOnThread()
			continue
		}
		if err == nil {
			// About to park: re-enable eventfd signals, then reap once
			// more — a completion posted between the last reap and the
			// enable produced no signal and would otherwise be slept on.
			atomic.StoreUint32(c.kCQFlags, 0)
			c.reap()
			if c.split.pending() || c.recvErr != 0 {
				c.mu.Unlock()
				continue // deliver (or surface the error) on the next pass
			}
		}
		c.mu.Unlock()
		if err != nil {
			return 0, err
		}
		// Nothing pending: park this goroutine on the CQ eventfd via the
		// netpoller with the lock dropped, bounded by the read deadline
		// (or a housekeeping tick, so Close and deadline changes are
		// honored even with no traffic).
		wait := 50 * time.Millisecond
		if dl := c.deadline.Load(); dl != 0 {
			remaining := time.Until(time.Unix(0, dl))
			if remaining <= 0 {
				return 0, os.ErrDeadlineExceeded
			}
			wait = min(wait, remaining)
		}
		c.split.st.parks.Add(1)
		if err := c.waitEventfd(wait); err != nil {
			return 0, err
		}
	}
}

// waitOnThread blocks the reader's own thread until the completion queue
// holds an entry or the read deadline passes; with no deadline it does
// not wait. Its bound is the deadline, not the mmsg rung's budget: the
// engine re-arms a 1 ms deadline before every read, so a wait ends by
// the next queue poll, and paced request trains arrive about 800 µs
// apart, past a 100 µs budget. The waiter count keeps Close from
// tearing the ring down under the syscall.
func (c *uringConn) waitOnThread() {
	dl := c.deadline.Load()
	if dl == 0 {
		return
	}
	wait := time.Duration(dl - time.Now().UnixNano())
	if wait <= 0 {
		return
	}
	c.waiters.Add(1)
	defer c.waiters.Add(-1)
	if c.closed.Load() {
		return
	}
	c.split.st.threadWaits.Add(1)
	pollOnThread(uintptr(c.ringFd), wait)
}

// waitEventfd parks the reader on the CQ eventfd for up to d. A
// successful read just clears the counter — the caller loops and reaps;
// a timeout is equally a normal wakeup (the caller re-checks its
// deadline). Close closes the eventfd, which surfaces here as ErrClosed
// and is folded into the closed check at the top of the read loop.
func (c *uringConn) waitEventfd(d time.Duration) error {
	if err := c.evFile.SetReadDeadline(time.Now().Add(d)); err != nil {
		return err
	}
	_, err := c.evFile.Read(c.evScratch[:])
	if err == nil || os.IsTimeout(err) || errors.Is(err, os.ErrClosed) || errors.Is(err, syscall.EINTR) {
		return nil
	}
	return err
}

// rearmIfPossible re-queues the multishot receive if it terminated and
// at least one provided buffer is free, then submits.
func (c *uringConn) rearmIfPossible() error {
	if c.recvArmed || c.claimed >= c.nBufs {
		return nil
	}
	if err := c.armRecv(); err != nil {
		return err
	}
	return c.submit()
}

// WriteBatch sends through the mmsg rung's sendmmsg path, trains as
// UDP_SEGMENT sends straight from the caller's buffers, and unrolls a
// train the kernel refuses. It never takes the ring mutex.
func (c *uringConn) WriteBatch(ms []Message) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	return writeBatchGSO(c.rc, &c.tx, &c.txc, ms, c.ip4)
}

// TxStats implements TxStatser.
func (c *uringConn) TxStats() TxStats { return c.txc.snapshot() }

// RxStats implements RxStatser.
func (c *uringConn) RxStats() RxStats { return c.split.st.snapshot() }

func (c *uringConn) SetReadDeadline(t time.Time) error {
	if t.IsZero() {
		c.deadline.Store(0)
		return nil
	}
	c.deadline.Store(t.UnixNano())
	return nil
}

func (c *uringConn) LocalAddr() net.Addr { return c.pc.LocalAddr() }

// OwnThread implements BatchConn.
func (c *uringConn) OwnThread() { c.owned = true }

// Backend names the transport rung for stats and logs.
func (c *uringConn) Backend() string { return "uring" }

// Stats snapshots the ring telemetry. Callers hold no lock; the
// counters are maintained under the conn mutex, so a snapshot taken
// mid-call may be one datagram stale, which is fine for telemetry.
func (c *uringConn) Stats() UringStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return UringStats{
		RingEntries: int(c.sqEntries),
		BufRingSize: c.nBufs,
		Resubmits:   c.resubmits,
		Starved:     c.starved,
		Enters:      c.enters.Load(),
	}
}

func (c *uringConn) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Wake a reader parked on the CQ eventfd (its Read fails with
	// ErrClosed and the loop observes closed), then wait out an
	// on-thread wait, which ends by its read deadline at the latest; a
	// fresh one sees closed and never polls the ring.
	_ = c.evFile.Close()
	for c.waiters.Load() != 0 {
		time.Sleep(time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.teardown()
	return nil
}

// teardown releases ring resources and the socket; safe on a partially
// constructed conn. evFile is closed but never nilled: a late reader
// racing into waitEventfd must find a (closed) file, not a nil pointer,
// and os.File tolerates both the double close and post-close reads.
func (c *uringConn) teardown() {
	if c.evFile != nil {
		_ = c.evFile.Close()
	}
	if c.ringFd >= 0 {
		// Closing the ring cancels the multishot and drops the pbuf
		// ring registration with it.
		_ = syscall.Close(c.ringFd)
		c.ringFd = -1
	}
	if c.sqeMem != nil {
		_ = syscall.Munmap(c.sqeMem)
		c.sqeMem = nil
	}
	if c.ringMem != nil {
		_ = syscall.Munmap(c.ringMem)
		c.ringMem = nil
	}
	if c.bufRingMem != nil {
		_ = syscall.Munmap(c.bufRingMem)
		c.bufRingMem = nil
	}
	if c.slab != nil {
		_ = syscall.Munmap(c.slab)
		c.slab = nil
	}
	if c.pc != nil {
		_ = c.pc.Close()
	}
}

func probeUring() error {
	if forceFallback {
		return fmt.Errorf("%w: netio_fallback build", ErrUringUnsupported)
	}
	pc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("netio: uring probe socket: %w", err)
	}
	uc, err := NewUringConn(pc, UringConfig{Entries: 8, Buffers: 8, BufSize: 2048})
	if err != nil {
		_ = pc.Close()
		return err
	}
	defer uc.Close()
	self, ok := AddrPortOf(pc.LocalAddr())
	if !ok {
		return fmt.Errorf("netio: uring probe: unusable local addr %v", pc.LocalAddr())
	}
	payload := []byte("uring-probe")
	if _, err := uc.WriteBatch([]Message{{Buf: payload, N: len(payload), Src: self}}); err != nil {
		return fmt.Errorf("%w: probe send: %v", ErrUringUnsupported, err)
	}
	if err := uc.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		return err
	}
	ms := []Message{{Buf: make([]byte, 64)}}
	n, err := uc.ReadBatch(ms)
	if err != nil || n != 1 || string(ms[0].Buf[:ms[0].N]) != string(payload) {
		return fmt.Errorf("%w: probe roundtrip failed (n=%d, err=%v)", ErrUringUnsupported, n, err)
	}
	return nil
}
