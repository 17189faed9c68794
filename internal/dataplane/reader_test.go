package dataplane

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"incod/internal/netio"
)

// seqHandler answers each datagram with its flow's running count and the
// datagram itself: a reply depends on every earlier datagram of its
// flow, so a reordering inside a flow changes the bytes.
type seqHandler struct {
	mu sync.Mutex
	n  map[netip.AddrPort]int
}

func newSeqHandler() *seqHandler { return &seqHandler{n: map[netip.AddrPort]int{}} }

func (h *seqHandler) HandleDatagram(in []byte, scratch *[]byte) ([]byte, bool) {
	return h.HandleDatagramFrom(in, netip.AddrPort{}, scratch)
}

func (h *seqHandler) HandleDatagramFrom(in []byte, from netip.AddrPort, scratch *[]byte) ([]byte, bool) {
	h.mu.Lock()
	h.n[from]++
	k := h.n[from]
	h.mu.Unlock()
	*scratch = fmt.Appendf((*scratch)[:0], "%d|%s", k, in)
	return *scratch, true
}

// readerFlow is one client socket of the loopback reader test: what it
// sent, in order, and the replies it got, in order.
type readerFlow struct {
	bc   netio.BatchConn
	src  netip.AddrPort
	sent [][]byte
	got  [][]byte
}

// TestSingleReaderBatchesAndTrainsOverLoopback serves a real socket
// through New with two shards and sends it two flows' requests: windows
// of single datagrams, the first queued before the engine starts, then,
// wherever netio.ProbeGSO passes, windows of UDP_SEGMENT trains. Every
// flow must get exactly the replies Dispatcher.One gives the same
// datagrams one at a time, in order. On the mmsg rung the reader must
// have read more than one datagram per read; where its socket took
// UDP_GRO, the trains must have arrived whole; and after Close no pooled
// buffer may be left out.
func TestSingleReaderBatchesAndTrainsOverLoopback(t *testing.T) {
	srv, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e := New(srv, newSeqHandler(), Config{Name: "test-reader", Shards: 2})
	defer e.Close()

	flows := make([]*readerFlow, 2)
	for f := range flows {
		conn, err := net.Dial("udp4", srv.LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		flows[f] = &readerFlow{bc: netio.NewBatchConn(conn.(*net.UDPConn)), src: conn.LocalAddr().(*net.UDPAddr).AddrPort()}
		defer flows[f].bc.Close()
	}
	rx := make([]netio.Message, 64)
	for i := range rx {
		rx[i].Buf = make([]byte, 256)
	}

	// window sends each flow segs equal-size requests, as trains of
	// trainSegs segments when trainSegs > 1, and waits for every reply.
	window := func(segs, trainSegs int) {
		t.Helper()
		for f, fl := range flows {
			var tx []netio.Message
			for k := 0; k < segs; k += trainSegs {
				var buf []byte
				for range trainSegs {
					req := fmt.Appendf(nil, "f%d-%04d", f, len(fl.sent))
					fl.sent = append(fl.sent, req)
					buf = append(buf, req...)
				}
				m := netio.Message{Buf: buf, N: len(buf)}
				if trainSegs > 1 {
					m.SegSize = len(buf) / trainSegs
				}
				tx = append(tx, m)
			}
			for len(tx) > 0 {
				n, err := fl.bc.WriteBatch(tx)
				if err != nil {
					t.Fatal(err)
				}
				tx = tx[n:]
			}
		}
		if !e.started.Load() {
			e.Start()
		}
		for f, fl := range flows {
			for deadline := time.Now().Add(5 * time.Second); len(fl.got) < len(fl.sent); {
				_ = fl.bc.SetReadDeadline(deadline)
				n, err := fl.bc.ReadBatch(rx)
				if err != nil {
					t.Fatalf("flow %d: %d of %d replies, then %v", f, len(fl.got), len(fl.sent), err)
				}
				for _, m := range rx[:n] {
					fl.got = append(fl.got, bytes.Clone(m.Buf[:m.N]))
				}
			}
		}
	}
	for range 4 {
		window(32, 1)
	}
	trains := netio.ProbeGSO() == nil
	if trains {
		for range 4 {
			window(32, 16)
		}
	}

	ref := NewDispatcher(newSeqHandler())
	scratch := make([]byte, 0, 64)
	for f, fl := range flows {
		if len(fl.got) != len(fl.sent) {
			t.Fatalf("flow %d: %d replies for %d requests", f, len(fl.got), len(fl.sent))
		}
		for i, req := range fl.sent {
			want, _ := ref.One(nil, req, fl.src, &scratch)
			if !bytes.Equal(fl.got[i], want) {
				t.Fatalf("flow %d, reply %d: %q, Dispatcher.One gives %q", f, i, fl.got[i], want)
			}
		}
	}

	st := e.Snapshot()
	t.Logf("reader on %s: rx_per_read %.2f, gro_rx %v, rx_trains %d (%.1f segs each), trains sent %v",
		netio.BackendOf(e.reader), st.RxPerRead, st.GRORx, st.RxTrains, st.RxSegsPerTrain, trains)
	if st.Mode != "single-reader" || st.Backend != "" {
		t.Fatalf("mode %q backend %q, want single-reader and none", st.Mode, st.Backend)
	}
	if netio.BackendOf(e.reader) == "mmsg" && st.RxPerRead <= 1 {
		t.Fatalf("the mmsg reader read %.2f datagrams per read; the first window was queued before it started", st.RxPerRead)
	}
	if trains && st.GRORx && st.RxTrains == 0 {
		t.Fatalf("trains sent to a GRO socket, none arrived coalesced (stats %+v)", st)
	}
	if !st.GRORx && st.RxTrains > 0 || st.RxCutSegs > 0 {
		t.Fatalf("gro_rx %v with %d trains, %d datagrams cut", st.GRORx, st.RxTrains, st.RxCutSegs)
	}
	e.Close()
	if st := e.Snapshot(); st.BuffersInFlight != 0 {
		t.Fatalf("%d pooled buffers left out after Close", st.BuffersInFlight)
	}
}
