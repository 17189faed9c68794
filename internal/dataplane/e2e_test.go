package dataplane_test

// Loopback end-to-end tests: each daemon's handler served by the real
// engine over real UDP sockets, speaking the real wire protocols.

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
	"incod/internal/simnet"
)

func serve(t *testing.T, h dataplane.Handler, cfg dataplane.Config) (*dataplane.Engine, string) {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e := dataplane.New(conn, h, cfg)
	e.Start()
	t.Cleanup(e.Close)
	return e, conn.LocalAddr().String()
}

// exchange sends req and waits for one reply, retrying a few times since
// UDP may drop even on loopback.
func exchange(t *testing.T, conn net.Conn, req []byte) []byte {
	t.Helper()
	buf := make([]byte, 64*1024)
	for attempt := 0; attempt < 5; attempt++ {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		n, err := conn.Read(buf)
		if err == nil {
			return append([]byte(nil), buf[:n]...)
		}
	}
	t.Fatalf("no reply to %q", req)
	return nil
}

func TestE2EKVSFramedAndRawASCII(t *testing.T) {
	store := kvs.NewShardedStore(4, 0)
	e, addr := serve(t, kvs.NewHandler(store),
		dataplane.Config{Name: "kvs-e2e", Shards: 4})
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Framed memcached UDP: set then get.
	set := memcache.EncodeFrame(memcache.Frame{RequestID: 11, Total: 1},
		memcache.EncodeRequest(memcache.Request{Op: memcache.OpSet, Key: "alpha", Flags: 5, Value: []byte("beta")}))
	out := exchange(t, conn, set)
	f, body, err := memcache.DecodeFrame(out)
	if err != nil || f.RequestID != 11 {
		t.Fatalf("set reply frame %+v, err %v", f, err)
	}
	if resp, err := memcache.ParseResponse(body); err != nil || resp.Status != memcache.StatusStored {
		t.Fatalf("set reply %+v, err %v", resp, err)
	}
	get := memcache.EncodeFrame(memcache.Frame{RequestID: 12, Total: 1},
		memcache.EncodeRequest(memcache.Request{Op: memcache.OpGet, Key: "alpha"}))
	out = exchange(t, conn, get)
	if _, body, err = memcache.DecodeFrame(out); err != nil {
		t.Fatal(err)
	}
	resp, err := memcache.ParseResponse(body)
	if err != nil || !resp.Hit || string(resp.Value) != "beta" || resp.Flags != 5 {
		t.Fatalf("framed get reply %+v, err %v", resp, err)
	}

	// Raw ASCII (the socat/netcat path).
	out = exchange(t, conn, []byte("get alpha\r\n"))
	resp, err = memcache.ParseResponse(out)
	if err != nil || !resp.Hit || string(resp.Value) != "beta" {
		t.Fatalf("raw get reply %+v, err %v", resp, err)
	}
	out = exchange(t, conn, []byte("delete alpha\r\n"))
	if resp, err = memcache.ParseResponse(out); err != nil || resp.Status != memcache.StatusDeleted {
		t.Fatalf("raw delete reply %+v, err %v", resp, err)
	}

	if st := e.Snapshot(); st.Handled < 4 || st.Handler["hits"] < 2 {
		t.Fatalf("engine stats after e2e: %+v", st)
	}
}

// TestFramedRepliesTrainByLengthOverLoopback serves kvs.Handler on one
// batched mmsg socket holding 16 keys of 16 distinct value lengths. A
// framed client sends 32 GETs, shortest value first, in one sendmmsg
// queued before the engine starts, so one flush holds all 32 replies.
// Cut in arrival order, only the longest reply would share a train (31
// sends); tagged (framed) replies cut longest first must go out in fewer
// sends than replies, no more than one per value length, each matched
// by request ID to its key's value. A raw-ASCII
// client on another port then pipelines the same GETs and must get its
// replies in request order: raw replies name nothing.
func TestFramedRepliesTrainByLengthOverLoopback(t *testing.T) {
	if err := netio.ProbeGSO(); err != nil {
		t.Skipf("no reply trains here: %v", err)
	}
	srv, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bc := netio.NewBatchConn(srv)
	if b := netio.BackendOf(bc); b != "mmsg" {
		bc.Close()
		t.Skipf("rung %q sends no trains", b)
	}
	const keys, gets = 16, 32
	key := func(i int) string { return fmt.Sprintf("key-%02d", i%keys) }
	value := func(i int) []byte { return bytes.Repeat([]byte{'a' + byte(i%keys)}, 20+37*(i%keys)) }
	store := kvs.NewShardedStore(4, 0)
	for i := range keys {
		store.Set(key(i), kvs.Entry{Value: value(i)})
	}
	e := dataplane.NewBatchedConns([]net.PacketConn{srv}, []netio.BatchConn{bc}, kvs.NewHandler(store), dataplane.Config{Name: "kvs-tagged"})
	defer e.Close()

	client := func() netio.BatchConn {
		conn, err := net.Dial("udp4", srv.LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		c := netio.NewBatchConn(conn.(*net.UDPConn))
		t.Cleanup(func() { c.Close() })
		return c
	}
	// exchange sends reqs in one WriteBatch and returns the replies in
	// arrival order. The slots are too small for UDP_GRO, so each holds
	// one datagram.
	exchange := func(c netio.BatchConn, reqs [][]byte, start bool) [][]byte {
		t.Helper()
		tx := make([]netio.Message, len(reqs))
		for i, r := range reqs {
			tx[i] = netio.Message{Buf: r, N: len(r)}
		}
		if n, err := c.WriteBatch(tx); n != len(tx) || err != nil {
			t.Fatalf("sent %d of %d requests: %v", n, len(tx), err)
		}
		if start {
			e.Start()
		}
		rx := make([]netio.Message, gets)
		for i := range rx {
			rx[i].Buf = make([]byte, 2048)
		}
		var got [][]byte
		for deadline := time.Now().Add(5 * time.Second); len(got) < len(reqs); {
			_ = c.SetReadDeadline(deadline)
			n, err := c.ReadBatch(rx)
			if err != nil {
				t.Fatalf("%d of %d replies, then %v", len(got), len(reqs), err)
			}
			for _, m := range rx[:n] {
				got = append(got, bytes.Clone(m.Buf[:m.N]))
			}
		}
		return got
	}
	hit := func(what string, body []byte, i int) {
		t.Helper()
		resp, err := memcache.ParseResponse(body)
		if err != nil || !resp.Hit || resp.Key != key(i) || !bytes.Equal(resp.Value, value(i)) {
			t.Fatalf("%s: reply %q (%v), want %s's %d-byte value", what, body, err, key(i), len(value(i)))
		}
	}

	framed := make([][]byte, gets)
	for i := range framed {
		framed[i] = memcache.EncodeFrame(memcache.Frame{RequestID: uint16(1000 + i), Total: 1}, []byte("get "+key(i)+"\r\n"))
	}
	seen := make([]bool, gets)
	for _, r := range exchange(client(), framed, true) {
		f, body, err := memcache.DecodeFrame(r)
		i := int(f.RequestID) - 1000
		if err != nil || i < 0 || i >= gets || seen[i] {
			t.Fatalf("reply frame %+v (%v): not one of the requests, or answered twice", f, err)
		}
		seen[i] = true
		hit(fmt.Sprintf("request ID %d", f.RequestID), body, i)
	}
	var st dataplane.Stats
	for deadline := time.Now().Add(5 * time.Second); st.Replies < gets && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		st = e.Snapshot()
	}
	sends := st.TxTrains + st.Replies - st.TxTrainSegs
	t.Logf("%d framed replies in %d sends: %d trains of %.1f segments", st.Replies, sends, st.TxTrains, st.TxSegsPerTrain)
	if st.Replies != gets || sends >= st.Replies || sends > keys {
		t.Fatalf("%d replies in %d sends, want %d in at most %d (stats %+v)", st.Replies, sends, gets, keys, st)
	}

	raw := make([][]byte, gets)
	for i := range raw {
		raw[i] = []byte("get " + key(i) + "\r\n")
	}
	for i, r := range exchange(client(), raw, false) {
		hit(fmt.Sprintf("raw reply %d", i), r, i)
	}
}

func TestE2EDNS(t *testing.T) {
	zone := dns.NewZone()
	zone.PopulateSequential(4)
	e, addr := serve(t, dns.NewHandler(zone), dataplane.Config{Name: "dns-e2e", Shards: 2})
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	q, err := dns.Encode(dns.NewQuery(77, dns.SequentialName(2)))
	if err != nil {
		t.Fatal(err)
	}
	m, err := dns.Decode(exchange(t, conn, q), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Response || !m.HasAnswer || m.ID != 77 || m.RCode != dns.RCodeNoError {
		t.Fatalf("answer: %+v", m)
	}
	if m.Addr != [4]byte{10, 0, 0, 2} {
		t.Fatalf("addr = %v", m.Addr)
	}

	// Unknown name: NXDOMAIN.
	q, _ = dns.Encode(dns.NewQuery(78, "nowhere.example.com"))
	if m, err = dns.Decode(exchange(t, conn, q), 0); err != nil || m.RCode != dns.RCodeNXDomain {
		t.Fatalf("nxdomain: %+v err %v", m, err)
	}

	if st := e.Snapshot(); st.Handler["answered"] < 1 || st.Handler["nxdomain"] < 1 {
		t.Fatalf("dns handler counters: %v", st.Handler)
	}
}

func TestE2EPaxosConsensusOverLoopback(t *testing.T) {
	// Sockets first, so every role knows its peers' addresses.
	mkConn := func() net.PacketConn {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	sender := func(conn net.PacketConn) paxos.Sender {
		return func(to string, m paxos.Msg) {
			if addr, err := net.ResolveUDPAddr("udp", to); err == nil {
				conn.WriteTo(paxos.Encode(m), addr)
			}
		}
	}

	learnerConn := mkConn()
	leaderConn := mkConn()
	accConns := []net.PacketConn{mkConn(), mkConn(), mkConn()}
	learners := []string{learnerConn.LocalAddr().String()}
	var accAddrs []string
	for _, c := range accConns {
		accAddrs = append(accAddrs, c.LocalAddr().String())
	}

	learner := paxos.NewLiveLearner(2, leaderConn.LocalAddr().String(), sender(learnerConn))
	learner.Start(50 * time.Millisecond)
	defer learner.Stop()
	le := dataplane.New(learnerConn, learner, dataplane.Config{Name: "learner", Shards: 1})
	le.Start()
	defer le.Close()

	for i, c := range accConns {
		acc := paxos.NewLiveAcceptor(uint16(i), learners, sender(c))
		ae := dataplane.New(c, acc, dataplane.Config{Name: fmt.Sprintf("acceptor-%d", i), Shards: 1})
		ae.Start()
		defer ae.Close()
	}

	leader := paxos.NewLiveLeader(1, accAddrs, sender(leaderConn))
	lde := dataplane.New(leaderConn, leader, dataplane.Config{Name: "leader", Shards: 1})
	lde.Start()
	defer lde.Close()

	// A bare-socket client: submit requests, await decisions.
	client := mkConn()
	defer client.Close()
	self := client.LocalAddr().String()
	leaderAddr, _ := net.ResolveUDPAddr("udp", leaderConn.LocalAddr().String())

	const requests = 5
	decided := map[uint64]bool{}
	buf := make([]byte, 64*1024)
	for seq := uint64(1); seq <= requests; seq++ {
		req := paxos.Encode(paxos.Msg{Type: paxos.MsgClientRequest, Seq: seq,
			ClientAddr: simnet.Addr(self), Value: []byte(fmt.Sprintf("cmd-%d", seq))})
		got := false
		for attempt := 0; attempt < 10 && !got; attempt++ {
			if _, err := client.WriteTo(req, leaderAddr); err != nil {
				t.Fatal(err)
			}
			client.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
			n, _, err := client.ReadFrom(buf)
			if err != nil {
				continue
			}
			var m paxos.MsgView
			if err := paxos.DecodeView(buf[:n], &m); err == nil && m.Type == paxos.MsgDecision {
				decided[m.Seq] = true
				if m.Seq == seq {
					got = true
				}
			}
		}
		if !got {
			t.Fatalf("no decision for seq %d (decided so far: %v)", seq, decided)
		}
	}
	if learner.DecidedCount() < requests {
		t.Fatalf("learner decided %d instances, want >= %d", learner.DecidedCount(), requests)
	}
	// Fresh leaders start at 1 and advance one instance per request (§9.2).
	if n := learner.Highest(); n < requests {
		t.Fatalf("highest decided instance = %d, want >= %d", n, requests)
	}
}
