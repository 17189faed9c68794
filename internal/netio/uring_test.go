package netio

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

// newUringPair builds a uring server conn on loopback and a connected
// mmsg/single client aimed at it, skipping when the kernel can't.
func newUringPair(t *testing.T, cfg UringConfig) (server BatchConn, client BatchConn) {
	t.Helper()
	if err := ProbeUring(); err != nil {
		t.Skipf("io_uring unavailable: %v", err)
	}
	spc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server, err = NewUringConn(spc, cfg)
	if err != nil {
		_ = spc.Close()
		t.Fatalf("NewUringConn: %v", err)
	}
	t.Cleanup(func() { server.Close() })
	cconn, err := net.Dial("udp4", spc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	client = NewBatchConn(cconn.(*net.UDPConn))
	t.Cleanup(func() { client.Close() })
	return server, client
}

func TestUringConnRoundTrip(t *testing.T) {
	server, client := newUringPair(t, UringConfig{})

	const k = 8
	out := make([]Message, k)
	for i := range out {
		out[i].Buf = []byte(fmt.Sprintf("umsg-%02d", i))
		out[i].N = len(out[i].Buf)
	}
	if n, err := client.WriteBatch(out); err != nil || n != k {
		t.Fatalf("client WriteBatch = %d, %v; want %d", n, err, k)
	}

	in := readAll(t, server, k)
	seen := map[string]bool{}
	for i := range in {
		m := &in[i]
		if !m.Src.IsValid() {
			t.Fatalf("message %d: no source address", i)
		}
		seen[string(m.Buf[:m.N])] = true
		m.Buf = append(m.Buf[:0], m.Buf[:m.N]...)
	}
	if len(seen) != k {
		t.Fatalf("server saw %d distinct payloads, want %d", len(seen), k)
	}
	// Echo through the sendmmsg transmit path.
	if n, err := server.WriteBatch(in); err != nil || n != k {
		t.Fatalf("server WriteBatch = %d, %v; want %d", n, err, k)
	}
	back := readAll(t, client, k)
	for i := range back {
		if payload := string(back[i].Buf[:back[i].N]); !seen[payload] {
			t.Fatalf("echo %d: unexpected payload %q", i, payload)
		}
	}
	if got := BackendOf(server); got != "uring" {
		t.Fatalf("BackendOf(server) = %q, want uring", got)
	}
	st, ok := UringStatsOf(server)
	if !ok || st.RingEntries == 0 || st.BufRingSize == 0 {
		t.Fatalf("UringStatsOf = %+v, %v", st, ok)
	}
}

func TestUringReadBatchHonorsDeadline(t *testing.T) {
	server, _ := newUringPair(t, UringConfig{})
	if err := server.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := server.ReadBatch(mkMsgs(4, 512))
	if err == nil {
		t.Fatal("ReadBatch on an idle socket returned without error")
	}
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("want timeout net.Error, got %v", err)
	}
	if since := time.Since(start); since > 3*time.Second {
		t.Fatalf("deadline took %v to fire", since)
	}
}

// TestUringBufferStarvationRecovers blasts far more datagrams than the
// provided-buffer ring holds: the multishot must terminate with ENOBUFS
// and be re-armed as ReadBatch recycles buffers, with zero loss on
// loopback.
func TestUringBufferStarvationRecovers(t *testing.T) {
	server, client := newUringPair(t, UringConfig{Entries: 8, Buffers: 8, BufSize: 512})

	const total = 256
	sent := map[string]bool{}
	for off := 0; off < total; off += 32 {
		out := make([]Message, 0, 32)
		for i := off; i < off+32; i++ {
			p := fmt.Sprintf("starve-%03d", i)
			sent[p] = true
			out = append(out, Message{Buf: []byte(p), N: len(p)})
		}
		if _, err := client.WriteBatch(out); err != nil {
			t.Fatal(err)
		}
	}
	got := readAll(t, server, total)
	for i := range got {
		if p := string(got[i].Buf[:got[i].N]); !sent[p] {
			t.Fatalf("unexpected payload %q", p)
		}
	}
	st, _ := UringStatsOf(server)
	t.Logf("stats after starvation run: %+v", st)
	if st.Starved == 0 && st.Resubmits == 0 {
		t.Logf("note: ring never starved (kernel drained %d datagrams into 8 buffers unusually fast)", total)
	}
}

// TestUringLargeWriteBatch pushes a write batch much larger than the
// ring through a uring sender: transmit runs on the sendmmsg path, so
// batch size must be independent of ring geometry.
func TestUringLargeWriteBatch(t *testing.T) {
	server, client := newUringPair(t, UringConfig{Entries: 8, Buffers: 64, BufSize: 512})
	_ = server

	// The uring backend is the sender here: connected uring client.
	cpc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	usender, err := NewUringConn(cpc, UringConfig{Entries: 4, Buffers: 8, BufSize: 512})
	if err != nil {
		t.Fatalf("NewUringConn(sender): %v", err)
	}
	defer usender.Close()
	dst, ok := AddrPortOf(server.LocalAddr())
	if !ok {
		t.Fatal("no server addr")
	}
	const k = 64
	out := make([]Message, k)
	sent := map[string]bool{}
	for i := range out {
		p := fmt.Sprintf("slots-%02d", i)
		sent[p] = true
		out[i] = Message{Buf: []byte(p), N: len(p), Src: dst}
	}
	if n, err := usender.WriteBatch(out); err != nil || n != k {
		t.Fatalf("WriteBatch = %d, %v; want %d", n, err, k)
	}
	got := readAll(t, server, k)
	for i := range got {
		if p := string(got[i].Buf[:got[i].N]); !sent[p] {
			t.Fatalf("unexpected payload %q", p)
		}
	}
	_ = client
}

// TestUringGROTrainSplit sends one GSO train of equal-size datagrams
// (plus a short tail segment) at a uring server, marked per send with
// Message.SegSize as the engine's reply path and the benchmark's
// generator mark theirs: whether the kernel delivers it coalesced
// (UDP_GRO active, one completion split by deliver) or pre-segmented
// (older kernel, or a sender without UDP_SEGMENT unrolling the train),
// ReadBatch must hand back exactly the per-datagram messages the train
// carried, in order. The deliberately tiny read batch forces mid-train
// resume across calls.
func TestUringGROTrainSplit(t *testing.T) {
	server, client := newUringPair(t, UringConfig{BufSize: 4096})
	const seg = 32
	var train []byte
	var want []string
	for i := 0; i < 9; i++ {
		p := fmt.Sprintf("train-%02d-................................", i)[:seg]
		want = append(want, p)
		train = append(train, p...)
	}
	tail := "short-tail"
	want = append(want, tail)
	train = append(train, tail...)
	if _, err := client.WriteBatch([]Message{{Buf: train, N: len(train), SegSize: seg}}); err != nil {
		t.Fatal(err)
	}

	var got []string
	ms := mkMsgs(3, 512)
	for len(got) < len(want) {
		if err := server.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		n, err := server.ReadBatch(ms)
		if err != nil {
			t.Fatalf("ReadBatch after %d messages: %v", len(got), err)
		}
		for i := 0; i < n; i++ {
			if !ms[i].Src.IsValid() {
				t.Fatalf("message %d: no source address", len(got))
			}
			got = append(got, string(ms[i].Buf[:ms[i].N]))
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("message %d = %q, want %q", i, got[i], want[i])
		}
	}
	st, _ := UringStatsOf(server)
	t.Logf("stats after GSO train: %+v", st)
}

func TestUringConnClosedRead(t *testing.T) {
	server, _ := newUringPair(t, UringConfig{})
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := server.ReadBatch(mkMsgs(1, 512)); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("ReadBatch after Close = %v, want net.ErrClosed", err)
	}
	// Double close is a no-op.
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestProbeUringCaches(t *testing.T) {
	a, b := ProbeUring(), ProbeUring()
	if (a == nil) != (b == nil) {
		t.Fatalf("probe verdict changed between calls: %v vs %v", a, b)
	}
	if forceFallback && a == nil {
		t.Fatal("netio_fallback build must fail the uring probe")
	}
}
