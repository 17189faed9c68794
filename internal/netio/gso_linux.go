//go:build linux && (amd64 || arm64)

package netio

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"
	"unsafe"
)

// UDP generic segmentation offload (UDP_SEGMENT, linux >= 4.18): a single
// send call carries a train of equal-size datagrams that the kernel
// segments at delivery — one udp_sendmsg walk per train instead of per
// datagram.
const (
	solUDP     = 17
	udpSegment = 103
	udpGRO     = 104
)

// Per-send UDP_SEGMENT: a send carries its own segment size via a cmsg,
// which is what lets one socket mix plain
// datagrams and trains of different widths — the shape a reply path
// produces. The layout below is cmsghdr on 64-bit linux: u64 cmsg_len,
// i32 cmsg_level, i32 cmsg_type, then the u16 segment size.
const (
	// gsoCtrlLen is CMSG_LEN(sizeof(uint16)): the 16-byte header plus
	// the payload, unpadded — what cmsg_len and msg_controllen carry.
	gsoCtrlLen = 18
	// gsoCtrlSpace is CMSG_SPACE(sizeof(uint16)): gsoCtrlLen padded to
	// 8-byte alignment — the room one control buffer occupies.
	gsoCtrlSpace = 24
)

// putGSOControl fills ctrl (gsoCtrlSpace bytes) with a UDP_SEGMENT cmsg
// carrying segSize.
func putGSOControl(ctrl []byte, segSize uint16) {
	_ = ctrl[gsoCtrlSpace-1]
	for i := range ctrl {
		ctrl[i] = 0
	}
	*(*uint64)(unsafe.Pointer(&ctrl[0])) = gsoCtrlLen
	*(*int32)(unsafe.Pointer(&ctrl[8])) = solUDP
	*(*int32)(unsafe.Pointer(&ctrl[12])) = udpSegment
	*(*uint16)(unsafe.Pointer(&ctrl[16])) = segSize
}

var (
	gsoProbeOnce sync.Once
	gsoProbeErr  error
)

// ProbeGSO reports whether per-send UDP_SEGMENT trains work end to end
// on this kernel, by sending one three-segment loopback train (raw
// sendmmsg + cmsg, no fallback in the path) and checking that exactly
// three datagrams with the right bytes come out. The result is cached;
// the netio_fallback build tag and the INCOD_NO_GSOTX environment
// variable both force a failure, which is how CI keeps the per-datagram
// path covered on GSO-capable kernels.
func ProbeGSO() error {
	gsoProbeOnce.Do(func() { gsoProbeErr = probeGSO() })
	return gsoProbeErr
}

func probeGSO() error {
	if forceFallback {
		return errors.New("netio: GSO TX disabled by the netio_fallback build tag")
	}
	if os.Getenv("INCOD_NO_GSOTX") != "" {
		return errors.New("netio: GSO TX disabled by INCOD_NO_GSOTX")
	}
	srv, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return fmt.Errorf("netio: GSO probe listen: %w", err)
	}
	defer srv.Close()
	cli, err := net.DialUDP("udp4", nil, srv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return fmt.Errorf("netio: GSO probe dial: %w", err)
	}
	defer cli.Close()
	rc, err := cli.SyscallConn()
	if err != nil {
		return err
	}
	const seg = 16
	train := bytes.Repeat([]byte("incod-gso-probe!"), 2)
	train = append(train, "tail"...)
	var tx mmsgScratch
	ms := []Message{{Buf: train, N: len(train), SegSize: seg}}
	if n, err := sendmmsgBatch(rc, &tx, ms, true); err != nil || n != 1 {
		return fmt.Errorf("netio: UDP_SEGMENT send rejected (n=%d): %w", n, err)
	}
	_ = srv.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 256)
	for off := 0; off < len(train); {
		n, _, err := srv.ReadFromUDPAddrPort(buf)
		if err != nil {
			return fmt.Errorf("netio: GSO probe receive: %w", err)
		}
		want := min(seg, len(train)-off)
		if n != want || !bytes.Equal(buf[:n], train[off:off+want]) {
			return fmt.Errorf("netio: GSO probe segment mismatch at %d (%d bytes)", off, n)
		}
		off += n
	}
	return nil
}
