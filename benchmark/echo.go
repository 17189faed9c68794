package main

import (
	"flag"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
)

// The reference server. The host this benchmark runs on is shared: for
// seconds to minutes at a time a neighbour slows the kernel's network
// path by a third to a half while the daemons' code has not changed, and
// any figure in microseconds or packets per second moves with it. So each
// run also drives a bare UDP echo — this binary re-executed on the server
// CPU set, one goroutine, one ReadFrom and one WriteTo per datagram, the
// least a Go server can do — with the same generator, the same rate and
// the same window, in slices interleaved with the daemon's a second or so
// apart. What is gated is the daemon's figure as a multiple of the echo's
// from the same moments: the host's state is in both and divides out,
// what the daemon does beyond moving a datagram in and out stays.
//
// It is also the networking sheet's bare-forwarding baseline: a ratio of 1
// would mean the service costs nothing beyond the packet I/O.

// echoSpec is the echo's traffic: fixed-size framed GET images, sent in
// the same train size as the workload it stands beside.
func echoSpec(w *workloadSpec) *workloadSpec {
	return &workloadSpec{Name: "echo", Proto: protoEcho, Daemon: "echo", Measure: "host", Train: w.Train}
}

func echoMain(args []string) error {
	fs := flag.NewFlagSet("echo", flag.ContinueOnError)
	addr := fs.String("addr", "", "UDP address to echo on")
	ctrl := fs.String("ctrl", "", "HTTP address answering /v1/healthz")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pc, err := net.ListenPacket("udp4", *addr)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp4", *ctrl)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	go http.Serve(ln, mux)
	go func() {
		conn := pc.(*net.UDPConn)
		buf := make([]byte, maxDatagram)
		for {
			n, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			_, _ = conn.WriteToUDPAddrPort(buf[:n], from)
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	<-sig
	pc.Close()
	ln.Close()
	return nil
}
