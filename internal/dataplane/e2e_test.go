package dataplane_test

// Loopback end-to-end tests: each daemon's handler served by the real
// engine over real UDP sockets, speaking the real wire protocols.

import (
	"fmt"
	"net"
	"testing"
	"time"

	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/memcache"
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
			m, err := paxos.Decode(buf[:n])
			if err == nil && m.Type == paxos.MsgDecision {
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
	if n := leader.Next(); n < requests+1 {
		t.Fatalf("leader next = %d, want >= %d", n, requests+1)
	}
}
