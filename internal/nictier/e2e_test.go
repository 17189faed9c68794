package nictier_test

// Loopback end-to-end tests: the real engine over real UDP sockets with
// the offload tier attached, driven by the real orchestrator — a load
// ramp provably crosses the threshold, the service shifts to the NIC
// tier while clients keep getting correct answers, and shifting back
// down drains cleanly.

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incod/internal/core"
	"incod/internal/daemon"
	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/memcache"
	"incod/internal/netio"
	"incod/internal/nictier"
	"incod/internal/paxos"
	"incod/internal/simnet"
)

func listenLoopback(t *testing.T) net.PacketConn {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestE2EShiftUnderLoadKVS(t *testing.T) {
	store := kvs.NewShardedStore(4, 0)
	h := kvs.NewHandler(store)
	conn := listenLoopback(t)
	eng := dataplane.New(conn, h, dataplane.Config{
		Name: "kvs-shift-e2e", Shards: 4,
	})
	eng.Start()
	t.Cleanup(eng.Close)

	svc := nictier.NewService("kvs", eng, nictier.NewKVS(h))
	// Thresholds far below loopback rates so the ramp provably crosses:
	// up at 200 req/s sustained 150ms, back down below 50 req/s.
	pol := core.NewThresholdPolicy(core.NetworkControllerConfig{
		ToNetworkKpps: 0.2, ToNetworkWindow: 150 * time.Millisecond,
		ToHostKpps: 0.05, ToHostWindow: 150 * time.Millisecond,
	})
	o := daemon.NewOrchestrator(0)
	m, err := o.Register("kvs", daemon.ServiceConfig{Service: svc, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	m.UseCounter(eng.Handled)
	if err := o.AttachDataplane("kvs", eng); err != nil {
		t.Fatal(err)
	}
	o.Tick(time.Now()) // prime metering

	const keys = 64
	for i := 0; i < keys; i++ {
		store.Set(fmt.Sprintf("key-%d", i), kvs.Entry{Value: []byte(fmt.Sprintf("value-%d", i))})
	}

	// The verifier: a closed-loop client hammering GETs and checking
	// every reply byte-for-byte, through both shifts. Timeouts retry
	// (UDP may drop); a wrong answer is fatal.
	cconn, err := net.Dial("udp", eng.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cconn.Close() })
	var verified, wrong atomic.Uint64
	var paused, stop atomic.Bool
	wrongDetail := make(chan string, 1)
	go func() {
		buf := make([]byte, 64*1024)
		var id uint16
		for i := 0; !stop.Load(); i++ {
			if paused.Load() {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			key := fmt.Sprintf("key-%d", i%keys)
			want := fmt.Sprintf("value-%d", i%keys)
			id++
			if _, err := cconn.Write(framedGet(id, key)); err != nil {
				return
			}
			cconn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			for {
				n, err := cconn.Read(buf)
				if err != nil {
					break // timeout or closed: retry with the next request
				}
				f, body, err := memcache.DecodeFrame(buf[:n])
				if err != nil || f.RequestID != id {
					continue // stale reply from an earlier timeout
				}
				resp, err := memcache.ParseResponse(body)
				if err != nil || !resp.Hit || string(resp.Value) != want {
					wrong.Add(1)
					select {
					case wrongDetail <- fmt.Sprintf("get %s: err=%v resp=%+v", key, err, resp):
					default:
					}
				} else {
					verified.Add(1)
				}
				break
			}
		}
	}()

	placementOf := func() string {
		s, err := o.Status("kvs")
		if err != nil {
			t.Fatal(err)
		}
		return s.Placement
	}

	// Ramp up: tick on real wall time until the policy shifts.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && placementOf() != "network" {
		time.Sleep(25 * time.Millisecond)
		o.Tick(time.Now())
	}
	if placementOf() != "network" {
		t.Fatalf("load ramp never crossed the threshold (status %+v, engine %+v)",
			statusOf(t, o), eng.Snapshot())
	}

	// Keep serving on the NIC tier for a while; traffic must be answered
	// from the fast path.
	time.Sleep(300 * time.Millisecond)
	snap := eng.Snapshot()
	if !snap.TierActive || snap.Offloaded == 0 {
		t.Fatalf("tier should be serving, engine %+v", snap)
	}
	if snap.TierHitRatio <= 0 {
		t.Fatalf("nic-tier hit ratio must be nonzero, engine %+v", snap)
	}
	if snap.TierPowerWatts <= 0 {
		t.Fatalf("tier power model missing, engine %+v", snap)
	}
	st := statusOf(t, o)
	if st.Shifts < 1 || st.LastShiftDuration == "" || len(st.Transitions) == 0 {
		t.Fatalf("shift telemetry missing: %+v", st)
	}

	// Drop the load: the policy must shift back down and drain cleanly.
	paused.Store(true)
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && placementOf() != "host" {
		time.Sleep(25 * time.Millisecond)
		o.Tick(time.Now())
	}
	if placementOf() != "host" {
		t.Fatalf("idle service never shifted back (status %+v)", statusOf(t, o))
	}
	if eng.Snapshot().TierActive {
		t.Fatal("fast path must be uninstalled after the down-shift")
	}

	// Post-drain the host must still answer correctly.
	before := verified.Load()
	paused.Store(false)
	waitUntil := time.Now().Add(2 * time.Second)
	for verified.Load() < before+50 && time.Now().Before(waitUntil) {
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	if verified.Load() < before+50 {
		t.Fatalf("host stopped answering after the down-shift (verified %d -> %d)", before, verified.Load())
	}

	if w := wrong.Load(); w != 0 {
		detail := "<none captured>"
		select {
		case detail = <-wrongDetail:
		default:
		}
		t.Fatalf("%d wrong answers during migration (first: %s)", w, detail)
	}
	if verified.Load() == 0 {
		t.Fatal("verifier never verified anything")
	}
	st = statusOf(t, o)
	if st.Shifts < 2 {
		t.Fatalf("want at least up+down shifts, got %+v", st)
	}
}

// Client flows SET and DELETE overlapping keys at once while the tier is
// lit, on a 4-socket batched engine (each flow served by the shard its
// socket landed on) and on the 4-shard single-reader engine, neither
// dispatching by key. Once the writers are done, the tier must serve
// every key exactly as the host store holds it; after the shift down,
// the host's GETs must still match the store.
func TestE2ESharedKeyWritersKVS(t *testing.T) {
	for _, mode := range []string{"batched", "single-reader"} {
		t.Run(mode, func(t *testing.T) {
			store := kvs.NewShardedStore(4, 0)
			h := kvs.NewHandler(store)
			cfg := dataplane.Config{Name: "kvs-writers-" + mode, Shards: 4}
			var eng *dataplane.Engine
			if mode == "batched" {
				conns, err := netio.ListenReusePortGroup("udp4", "127.0.0.1:0", 4)
				if err != nil {
					t.Skipf("reuseport group unavailable: %v", err)
				}
				bcs := make([]netio.BatchConn, len(conns))
				for i, c := range conns {
					bcs[i] = netio.NewBatchConn(c)
				}
				eng = dataplane.NewBatchedConns(conns, bcs, h, cfg)
			} else {
				eng = dataplane.New(listenLoopback(t), h, cfg)
			}
			eng.Start()
			t.Cleanup(eng.Close)
			tier := nictier.NewKVS(h)
			svc := nictier.NewService("kvs", eng, tier)

			const keys, clients, rounds = 16, 8, 40
			key := func(i int) string { return fmt.Sprintf("shared-%d", i) }
			for i := 0; i < keys; i++ {
				store.Set(key(i), kvs.Entry{Value: []byte("preloaded")})
			}
			if err := svc.Shift(core.Network); err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				conn, err := net.Dial("udp", eng.LocalAddr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				wg.Add(1)
				go func() {
					defer wg.Done()
					var id uint16
					for r := 0; r < rounds; r++ {
						for i := 0; i < keys; i++ {
							id++
							req := framedSet(id, key(i), fmt.Sprintf("client%d-round%d", c, r))
							if (r+c+i)%5 == 0 {
								req = framedDelete(id, key(i))
							}
							if _, err := roundTrip(conn, id, req); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			busy := 0
			for _, sh := range eng.Snapshot().Shards {
				if sh.Handled > 0 {
					busy++
				}
			}
			if busy < 2 {
				t.Fatalf("%d client flows all landed on one shard", clients)
			}

			conn, err := net.Dial("udp", eng.LocalAddr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			scratch := make([]byte, 0, 4096)
			check := func(lit bool) {
				t.Helper()
				now := simnet.Time(time.Since(h.Epoch()))
				for i := 0; i < keys; i++ {
					want, ok := store.GetString(key(i), now)
					if lit {
						out, served, _ := tier.TryHandleDatagram(framedGet(1, key(i)), netip.AddrPort{}, &scratch)
						if served != ok || served && string(parseFramedResponse(t, out).Value) != string(want.Value) {
							t.Fatalf("%s: tier served=%v %q, host holds %v %q", key(i), served, out, ok, want.Value)
						}
					}
					out, err := roundTrip(conn, uint16(i), framedGet(uint16(i), key(i)))
					if err != nil {
						t.Fatal(err)
					}
					resp := parseFramedResponse(t, out)
					if resp.Hit != ok || string(resp.Value) != string(want.Value) {
						t.Fatalf("%s (tier lit %v): GET answered %+v, host holds %v %q", key(i), lit, resp, ok, want.Value)
					}
				}
			}
			check(true)
			if err := svc.Shift(core.Host); err != nil {
				t.Fatal(err)
			}
			check(false)
		})
	}
}

// roundTrip sends req and returns the reply framed with request ID id,
// resending on a timeout (UDP may drop).
func roundTrip(conn net.Conn, id uint16, req []byte) ([]byte, error) {
	buf := make([]byte, 64*1024)
	for attempt := 0; attempt < 10; attempt++ {
		if _, err := conn.Write(req); err != nil {
			return nil, err
		}
		conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		for {
			n, err := conn.Read(buf)
			if err != nil {
				break
			}
			if f, _, err := memcache.DecodeFrame(buf[:n]); err == nil && f.RequestID == id {
				return buf[:n], nil
			}
		}
	}
	return nil, fmt.Errorf("request %d: no reply after 10 tries", id)
}

func statusOf(t *testing.T, o *daemon.Orchestrator) daemon.ServiceStatus {
	t.Helper()
	s, err := o.Status("kvs")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Service.Shift drives the DNS tier end to end over real sockets: after
// the up-shift the answer comes from the tier's synced table, and the
// down-shift hands serving back to the host zone.
func TestE2EServiceShiftDNS(t *testing.T) {
	zone := dns.NewZone()
	zone.PopulateSequential(8)
	conn := listenLoopback(t)
	eng := dataplane.New(conn, dns.NewHandler(zone), dataplane.Config{
		Name: "dns-shift-e2e", Shards: 2, MaxDatagram: 4096,
	})
	eng.Start()
	t.Cleanup(eng.Close)
	svc := nictier.NewService("dns", eng, nictier.NewDNS(zone))

	cconn, err := net.Dial("udp", eng.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cconn.Close()
	resolve := func(id uint16, name string) dns.Message {
		t.Helper()
		q, err := dns.Encode(dns.NewQuery(id, name))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4096)
		for attempt := 0; attempt < 5; attempt++ {
			if _, err := cconn.Write(q); err != nil {
				t.Fatal(err)
			}
			cconn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
			n, err := cconn.Read(buf)
			if err != nil {
				continue
			}
			m, err := dns.Decode(buf[:n], 0)
			if err == nil && m.ID == id {
				return m
			}
		}
		t.Fatalf("no answer for %s", name)
		return dns.Message{}
	}

	if m := resolve(1, dns.SequentialName(2)); !m.HasAnswer || m.Addr != [4]byte{10, 0, 0, 2} {
		t.Fatalf("host answer: %+v", m)
	}
	if err := svc.Shift(core.Network); err != nil {
		t.Fatal(err)
	}
	if m := resolve(2, dns.SequentialName(5)); !m.HasAnswer || m.Addr != [4]byte{10, 0, 0, 5} {
		t.Fatalf("tier answer: %+v", m)
	}
	if snap := eng.Snapshot(); !snap.TierActive || snap.Offloaded == 0 || snap.Tier["answered"] == 0 {
		t.Fatalf("tier should have answered, engine %+v", snap)
	}
	if err := svc.Shift(core.Host); err != nil {
		t.Fatal(err)
	}
	if m := resolve(3, dns.SequentialName(1)); !m.HasAnswer || m.Addr != [4]byte{10, 0, 0, 1} {
		t.Fatalf("post-drain host answer: %+v", m)
	}
	warm, drain := svc.LastTransitions()
	if warm <= 0 || drain <= 0 {
		t.Fatalf("transition durations not measured: warm=%v drain=%v", warm, drain)
	}
}

// Service.Shift drives the Paxos acceptor tier over real sockets: votes
// made on the host are visible through the tier (state handoff) and
// votes made on the tier survive the shift back.
func TestE2EServiceShiftPaxosAcceptor(t *testing.T) {
	conn := listenLoopback(t)
	send := func(to string, m paxos.Msg) {
		if addr, err := net.ResolveUDPAddr("udp", to); err == nil {
			conn.WriteTo(paxos.Encode(m), addr)
		}
	}
	host := paxos.NewLiveAcceptor(1, nil, send)
	eng := dataplane.New(conn, host, dataplane.Config{Name: "paxos-shift-e2e", Shards: 1})
	eng.Start()
	t.Cleanup(eng.Close)
	svc := nictier.NewService("paxos", eng, nictier.NewPaxosAcceptor(host))

	cconn, err := net.Dial("udp", eng.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cconn.Close()
	exchange := func(m paxos.Msg) paxos.Msg {
		t.Helper()
		buf := make([]byte, 4096)
		for attempt := 0; attempt < 5; attempt++ {
			if _, err := cconn.Write(paxos.Encode(m)); err != nil {
				t.Fatal(err)
			}
			cconn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
			n, err := cconn.Read(buf)
			if err != nil {
				continue
			}
			if resp, err := paxos.Decode(buf[:n]); err == nil {
				return resp
			}
		}
		t.Fatalf("no reply to %+v", m)
		return paxos.Msg{}
	}

	// Vote on the host, then shift: the tier must know the vote.
	if r := exchange(paxos.Msg{Type: paxos.MsgPhase2A, Instance: 1, Ballot: 3, Value: []byte("a")}); r.Type != paxos.MsgPhase2B {
		t.Fatalf("host vote: %+v", r)
	}
	if err := svc.Shift(core.Network); err != nil {
		t.Fatal(err)
	}
	if r := exchange(paxos.Msg{Type: paxos.MsgPhase1A, Instance: 1, Ballot: 4}); r.VBallot != 3 || string(r.Value) != "a" {
		t.Fatalf("tier lost the handed-off vote: %+v", r)
	}
	// Vote on the tier, shift back: the host must know it.
	if r := exchange(paxos.Msg{Type: paxos.MsgPhase2A, Instance: 2, Ballot: 4, Value: []byte("b")}); r.Type != paxos.MsgPhase2B {
		t.Fatalf("tier vote: %+v", r)
	}
	if snap := eng.Snapshot(); snap.Offloaded == 0 {
		t.Fatalf("consensus traffic should have been offloaded, engine %+v", snap)
	}
	if err := svc.Shift(core.Host); err != nil {
		t.Fatal(err)
	}
	if r := exchange(paxos.Msg{Type: paxos.MsgPhase1A, Instance: 2, Ballot: 5}); r.VBallot != 4 || string(r.Value) != "b" {
		t.Fatalf("handback lost the tier vote: %+v", r)
	}
}
