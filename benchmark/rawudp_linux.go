//go:build linux && (amd64 || arm64)

package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// rawUDP is the generator's socket: a connected UDP socket driven with
// non-blocking sendmmsg/recvmmsg straight on the descriptor. The load
// loop spins on its own CPU and must never park in the Go netpoller (a
// park-and-wake costs more than the request it waits for), which is why
// this does not go through netio.BatchConn. UDP_SEGMENT trains are sent
// with the same per-send cmsg netio uses.
type rawUDP struct {
	conn *net.UDPConn
	fd   int

	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	ctrls []byte
}

type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

const (
	solUDP       = 17
	udpSegment   = 103
	gsoCtrlLen   = 18 // CMSG_LEN(sizeof(uint16))
	gsoCtrlSpace = 24 // CMSG_SPACE(sizeof(uint16))
	maxBatch     = 64
)

func dialRaw(target string) (*rawUDP, error) {
	c, err := net.Dial("udp4", target)
	if err != nil {
		return nil, err
	}
	u := c.(*net.UDPConn)
	// Room for a full window of replies while the loop is busy sending.
	_ = u.SetReadBuffer(4 << 20)
	_ = u.SetWriteBuffer(4 << 20)
	rc, err := u.SyscallConn()
	if err != nil {
		u.Close()
		return nil, err
	}
	r := &rawUDP{conn: u, fd: -1,
		hdrs:  make([]mmsghdr, maxBatch),
		iovs:  make([]syscall.Iovec, maxBatch),
		ctrls: make([]byte, maxBatch*gsoCtrlSpace),
	}
	if err := rc.Control(func(fd uintptr) { r.fd = int(fd) }); err != nil {
		u.Close()
		return nil, err
	}
	return r, nil
}

func (r *rawUDP) Close() error { return r.conn.Close() }

// wireMsg is one send or receive: buf[:n], and for a send an optional
// UDP_SEGMENT size that makes buf[:n] a train of seg-byte datagrams.
type wireMsg struct {
	buf []byte
	n   int
	seg int
}

// send transmits ms without blocking and returns how many went out;
// EAGAIN (socket buffer full) reports the short count with a nil error.
func (r *rawUDP) send(ms []wireMsg) (int, error) {
	sent := 0
	for sent < len(ms) {
		batch := ms[sent:min(sent+maxBatch, len(ms))]
		for i := range batch {
			m := &batch[i]
			r.iovs[i].Base = &m.buf[0]
			r.iovs[i].SetLen(m.n)
			h := &r.hdrs[i]
			h.hdr = syscall.Msghdr{Iov: &r.iovs[i]}
			h.hdr.Iovlen = 1
			h.n = 0
			if m.seg > 0 && m.seg < m.n {
				ctrl := r.ctrls[i*gsoCtrlSpace : (i+1)*gsoCtrlSpace]
				clear(ctrl)
				*(*uint64)(unsafe.Pointer(&ctrl[0])) = gsoCtrlLen
				*(*int32)(unsafe.Pointer(&ctrl[8])) = solUDP
				*(*int32)(unsafe.Pointer(&ctrl[12])) = udpSegment
				*(*uint16)(unsafe.Pointer(&ctrl[16])) = uint16(m.seg)
				h.hdr.Control = &ctrl[0]
				h.hdr.SetControllen(gsoCtrlSpace)
			}
		}
		n, _, errno := syscall.Syscall6(sysSendmmsg, uintptr(r.fd),
			uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(len(batch)),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		runtime.KeepAlive(batch)
		switch errno {
		case 0:
			sent += int(n)
			if int(n) < len(batch) {
				return sent, nil
			}
		case syscall.EINTR:
		case syscall.EAGAIN:
			return sent, nil
		default:
			return sent, fmt.Errorf("sendmmsg: %w", errno)
		}
	}
	return sent, nil
}

// recv fills ms with whatever datagrams are queued, without blocking.
func (r *rawUDP) recv(ms []wireMsg) (int, error) {
	if len(ms) > maxBatch {
		ms = ms[:maxBatch]
	}
	for i := range ms {
		r.iovs[i].Base = &ms[i].buf[0]
		r.iovs[i].SetLen(len(ms[i].buf))
		h := &r.hdrs[i]
		h.hdr = syscall.Msghdr{Iov: &r.iovs[i]}
		h.hdr.Iovlen = 1
		h.n = 0
	}
	for {
		n, _, errno := syscall.Syscall6(sysRecvmmsg, uintptr(r.fd),
			uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(len(ms)),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		switch errno {
		case 0:
			for i := 0; i < int(n); i++ {
				ms[i].n = int(r.hdrs[i].n)
			}
			return int(n), nil
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return 0, nil
		case syscall.ECONNREFUSED:
			// The daemon's port is closed (it died, or has not bound yet);
			// the caller notices through the missing replies.
			return 0, nil
		default:
			return 0, fmt.Errorf("recvmmsg: %w", errno)
		}
	}
}

// --- CPU sets ----------------------------------------------------------------

// allowedCPUs parses Cpus_allowed_list of /proc/<pid>/status.
func allowedCPUs(pid string) ([]int, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			return parseCPUList(strings.TrimSpace(rest))
		}
	}
	return nil, fmt.Errorf("no Cpus_allowed_list in /proc/%s/status", pid)
}

func parseCPUList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return nil, fmt.Errorf("cpu list %q: %w", s, err)
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				return nil, fmt.Errorf("cpu list %q: %w", s, err)
			}
		}
		for c := a; c <= b; c++ {
			out = append(out, c)
		}
	}
	return out, nil
}

// setAffinity binds thread tid (0 = the calling thread) to cpus.
func setAffinity(tid int, cpus []int) error {
	var mask [16]uint64
	for _, c := range cpus {
		if c < 0 || c >= len(mask)*64 {
			return fmt.Errorf("cpu %d out of range", c)
		}
		mask[c/64] |= 1 << (uint(c) % 64)
	}
	_, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid),
		unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d, %v): %w", tid, cpus, errno)
	}
	return nil
}

// confineProcess binds every existing thread of this process to cpus;
// threads the runtime starts later inherit the mask from their creator.
func confineProcess(cpus []int) error {
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, e := range ents {
		tid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, cpus); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}
