package dataplane_test

// GSO-train-vs-per-datagram equivalence: a batched engine on a rung that
// sends UDP_SEGMENT coalesces same-destination replies into trains, and
// the kernel segments them back into individual datagrams at delivery —
// so a client without GRO must receive byte-identical replies from a
// training engine and a per-datagram one. Any divergence is a
// train-builder bug (mis-cut run, wrong segment size, buffer aliasing),
// which is exactly what this test exists to catch, for all three
// protocols, under -race.

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/memcache"
	"incod/internal/netio"
	"incod/internal/paxos"
)

// gsoReplyID extracts the protocol's correlation id from a reply so the
// window exchange can match replies to requests regardless of arrival
// order.
func gsoReplyID(proto string, payload []byte) (uint16, bool) {
	switch proto {
	case "kvs":
		frame, _, err := memcache.DecodeFrame(payload)
		if err != nil {
			return 0, false
		}
		return frame.RequestID, true
	case "dns":
		m, err := dns.Decode(payload, 0)
		if err != nil || !m.Response {
			return 0, false
		}
		return m.ID, true
	case "paxos":
		var v paxos.MsgView
		if paxos.DecodeView(payload, &v) != nil {
			return 0, false
		}
		return uint16(v.Instance), true
	}
	return 0, false
}

// exchangeWindows drives reqs at addr in windows of 32 outstanding
// requests per WriteBatch — the shape that lets the server's flush
// coalesce a whole window of replies into one train — and returns the
// replies keyed by correlation id.
func exchangeWindows(t *testing.T, proto, addr string, reqs [][]byte) map[uint16][]byte {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bc := netio.NewBatchConn(conn.(*net.UDPConn))
	defer bc.Close()

	const window = 32
	got := make(map[uint16][]byte, len(reqs))
	rx := make([]netio.Message, window)
	for i := range rx {
		rx[i].Buf = make([]byte, 4096)
	}
	for off := 0; off < len(reqs); off += window {
		end := min(off+window, len(reqs))
		tx := make([]netio.Message, 0, window)
		for _, r := range reqs[off:end] {
			tx = append(tx, netio.Message{Buf: r, N: len(r)})
		}
		if _, err := bc.WriteBatch(tx); err != nil {
			t.Fatal(err)
		}
		want := end - off
		deadline := time.Now().Add(5 * time.Second)
		for n := 0; n < want; {
			_ = bc.SetReadDeadline(deadline)
			m, err := bc.ReadBatch(rx)
			if err != nil {
				t.Fatalf("window at %d: %d/%d replies then %v", off, n, want, err)
			}
			for i := 0; i < m; i++ {
				id, ok := gsoReplyID(proto, rx[i].Buf[:rx[i].N])
				if !ok {
					t.Fatalf("window at %d: undecodable reply %q", off, rx[i].Buf[:rx[i].N])
				}
				got[id] = append([]byte(nil), rx[i].Buf[:rx[i].N]...)
				n++
			}
		}
	}
	return got
}

func TestGSOTrainTxByteIdenticalReplies(t *testing.T) {
	// The engine decides train TX on its own, so the per-datagram
	// reference is the rung that never trains: single. mmsg and — when
	// the kernel can — uring (trains as SENDMSG SQEs) train wherever
	// ProbeGSO passes; with the probe failed (INCOD_NO_GSOTX, the
	// netio_fallback tag) they serve per-datagram and must still agree.
	gso := netio.ProbeGSO() == nil
	backends := []string{"single", "mmsg"}
	if netio.ProbeUring() == nil {
		backends = append(backends, "uring")
	}

	run := func(t *testing.T, proto string, mkHandler func() dataplane.Handler, cfg dataplane.Config, reqs [][]byte) {
		var ref map[uint16][]byte
		for _, name := range backends {
			e, addr := serveBackend(t, name, mkHandler(), cfg)
			got := exchangeWindows(t, proto, addr, reqs)
			if len(got) != len(reqs) {
				t.Fatalf("%s: %d distinct replies for %d requests", name, len(got), len(reqs))
			}
			st := e.Snapshot()
			if want := gso && name != "single"; st.GSOTx != want {
				t.Fatalf("%s (backend %s): engine reports gso_tx=%v, want %v", name, st.Backend, st.GSOTx, want)
			}
			if st.GSOTx {
				if st.TxTrains == 0 {
					t.Fatalf("%s: no trains were built (stats %+v) — the equivalence claim would be vacuous", name, st)
				}
				if name == "uring" && st.RingSends == 0 {
					t.Fatalf("%s: trains did not ride the ring (stats %+v)", name, st)
				}
			}
			if ref == nil {
				ref = got
				continue
			}
			for id, want := range ref {
				if !bytes.Equal(got[id], want) {
					t.Fatalf("%s: reply %d = %q, want %q (per-datagram reference)", name, id, got[id], want)
				}
			}
		}
	}

	t.Run("dns", func(t *testing.T) {
		zone := dns.NewZone()
		zone.PopulateSequential(64)
		var reqs [][]byte
		for i := 0; i < 64; i++ {
			q, err := dns.Encode(dns.NewQuery(uint16(1000+i), dns.SequentialName(i%64)))
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, q)
		}
		// An NXDOMAIN mid-window: a different-size reply must cut the
		// train correctly, not corrupt its neighbors.
		q, _ := dns.Encode(dns.NewQuery(2000, "nowhere.example.com"))
		reqs = append(reqs, q)
		run(t, "dns", func() dataplane.Handler { return dns.NewHandler(zone) },
			dataplane.Config{Name: "gso-equiv-dns", MaxDatagram: 4096}, reqs)
	})

	t.Run("kvs", func(t *testing.T) {
		frame := func(id uint16, r memcache.Request) []byte {
			return memcache.EncodeFrame(memcache.Frame{RequestID: id, Total: 1}, memcache.EncodeRequest(r))
		}
		var reqs [][]byte
		for i := 0; i < 16; i++ {
			reqs = append(reqs, frame(uint16(3000+i), memcache.Request{
				Op: memcache.OpSet, Key: fmt.Sprintf("key-%02d", i),
				Flags: uint32(i), Value: []byte(fmt.Sprintf("value-%02d", i))}))
		}
		for i := 0; i < 16; i++ {
			reqs = append(reqs, frame(uint16(3100+i), memcache.Request{
				Op: memcache.OpGet, Key: fmt.Sprintf("key-%02d", i)}))
		}
		reqs = append(reqs,
			frame(3200, memcache.Request{Op: memcache.OpGet, Key: "missing"}),
			frame(3201, memcache.Request{Op: memcache.OpDelete, Key: "key-00"}),
			frame(3202, memcache.Request{Op: memcache.OpGet, Key: "key-00"}))
		// Fresh store per engine: the same mutation stream must produce
		// the same replies through either TX mode.
		run(t, "kvs", func() dataplane.Handler { return kvs.NewHandler(kvs.NewShardedStore(2, 0)) },
			dataplane.Config{Name: "gso-equiv-kvs", ShardBy: kvs.ShardByKey}, reqs)
	})

	t.Run("paxos", func(t *testing.T) {
		var reqs [][]byte
		for i := 0; i < 64; i++ {
			reqs = append(reqs, paxos.Encode(paxos.Msg{
				Type: paxos.MsgPhase2A, Instance: uint64(i + 1), Ballot: 3,
				Seq: uint64(i), ClientAddr: "client-1:2345", Value: []byte("value-of-modest-size")}))
		}
		run(t, "paxos", func() dataplane.Handler {
			return paxos.NewLiveAcceptor(1, nil, func(string, paxos.Msg) {})
		}, dataplane.Config{Name: "gso-equiv-paxos", MaxDatagram: 4096}, reqs)
	})
}
