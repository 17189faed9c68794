package main

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/netio"
	"incod/internal/nictier"
	"incod/internal/paxos"
)

// caps is the set of optional interfaces the engine probes a value for.
type caps struct {
	batch, source, stats, hot, batchFP, tx, uring, backend bool
}

func capsOf(v any) caps {
	var c caps
	_, c.batch = v.(dataplane.BatchHandler)
	_, c.source = v.(dataplane.SourceHandler)
	_, c.stats = v.(dataplane.StatsReporter)
	_, c.hot = v.(dataplane.HotKeyReporter)
	_, c.batchFP = v.(dataplane.BatchFastPath)
	_, c.tx = v.(netio.TxStatser)
	_, c.uring = v.(netio.UringStatser)
	_, c.backend = v.(interface{ Backend() string })
	return c
}

type sourceOnly struct{}

func (sourceOnly) HandleDatagram([]byte, *[]byte) ([]byte, bool) { return nil, false }
func (sourceOnly) HandleDatagramFrom([]byte, netip.AddrPort, *[]byte) ([]byte, bool) {
	return nil, false
}

func TestWrappedHandlersKeepTheirInterfaces(t *testing.T) {
	tr := newTracer()
	kh := kvs.NewHandler(kvs.NewShardedStore(1, 0))
	handlers := map[string]dataplane.Handler{
		"kvs":    kh,
		"dns":    dns.NewHandler(dns.NewZone()),
		"paxos":  paxos.NewLiveAcceptor(0, nil, func(string, paxos.Msg) {}),
		"plain":  dataplane.HandlerFunc(func([]byte, *[]byte) ([]byte, bool) { return nil, false }),
		"source": sourceOnly{},
	}
	for name, h := range handlers {
		w, err := wrapHandler(h, tr, false)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got, want := capsOf(w), capsOf(h); got != want {
			t.Errorf("%s: wrapped handler has %+v, the handler itself %+v", name, got, want)
		}
	}
	if !capsOf(handlers["kvs"]).hot || !capsOf(handlers["dns"]).batch || !capsOf(handlers["source"]).source {
		t.Fatal("the test's handlers no longer cover the interfaces it is about")
	}
}

func TestWrappedTiersKeepTheirInterfaces(t *testing.T) {
	tr := newTracer()
	kh := kvs.NewHandler(kvs.NewShardedStore(1, 0))
	tiers := map[string]nictier.Tier{
		"kvs":   nictier.NewKVSSized(kh, 8, 64),
		"dns":   nictier.NewDNS(dns.NewZone()),
		"paxos": nictier.NewPaxosAcceptor(paxos.NewLiveAcceptor(0, nil, func(string, paxos.Msg) {})),
	}
	for name, tier := range tiers {
		w, err := wrapTier(tier, tr)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got, want := capsOf(w), capsOf(tier); got != want || !got.batchFP || !got.stats {
			t.Errorf("%s: wrapped tier has %+v, the tier itself %+v", name, got, want)
		}
		if w.Name() != tier.Name() {
			t.Errorf("%s: wrapped tier is named %q", name, w.Name())
		}
	}
}

func TestWrappedConnsKeepTheirInterfaces(t *testing.T) {
	tr := newTracer()
	open := func() net.PacketConn {
		c, err := net.ListenPacket("udp4", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	conns := map[string]netio.BatchConn{
		"mmsg":   netio.NewBatchConn(open()),
		"single": netio.NewSingleConn(open()),
	}
	if netio.ProbeUring() == nil {
		if bc, err := netio.NewUringConn(open(), netio.UringConfig{}); err == nil {
			conns["uring"] = bc
		}
	}
	for name, bc := range conns {
		w, err := wrapConn(bc, tr)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if got, want := capsOf(w), capsOf(bc); got != want {
			t.Errorf("%s: wrapped conn has %+v, the conn itself %+v", name, got, want)
		} else if netio.BackendOf(w) != netio.BackendOf(bc) {
			t.Errorf("%s: wrapped conn reports backend %q", name, netio.BackendOf(w))
		}
		bc.Close()
	}
}

// burstEngine serves one burst of DNS queries through a batched engine
// with reply trains on, decorated or not, and returns its snapshot.
func burstEngine(t *testing.T, tr *tracer) dataplane.Stats {
	t.Helper()
	zone := dns.NewZone()
	zone.Add(dnsName(0, true), dnsAddr(0), 300)
	var h dataplane.Handler = dns.NewHandler(zone)
	conns, err := netio.ListenReusePortGroup("udp4", "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	bc := netio.NewBatchConn(conns[0])
	if tr != nil {
		if h, err = wrapHandler(h, tr, false); err != nil {
			t.Fatal(err)
		}
		if bc, err = wrapConn(bc, tr); err != nil {
			t.Fatal(err)
		}
	}
	eng := dataplane.NewBatchedConns(conns, []netio.BatchConn{bc}, h, dataplane.Config{MaxDatagram: 4096, GSOTx: true})
	client, err := net.Dial("udp4", eng.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// The whole burst sits in the socket before the engine's first read,
	// so the read batches are the same size decorated or not.
	const burst = 48
	for i := 0; i < burst; i++ {
		if _, err := client.Write(appendQuery(nil, uint16(i), 0, true, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	eng.Start()
	defer eng.Close()
	buf := make([]byte, 512)
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < burst; i++ {
		n, err := client.Read(buf)
		if err != nil {
			t.Fatalf("reply %d of %d: %v", i, burst, err)
		}
		if k := checkDNS(buf[:n], &slot{key: 0, aux: uint32(binaryID(buf)), kind: kindQuery}); k != failNone {
			t.Fatalf("reply %d judged %s", i, failNames[k])
		}
	}
	return eng.Snapshot()
}

func binaryID(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }

// TestDecoratedEngineServesTheSameWay is the point of the exact method
// sets: behind the decorators the engine must still find the batch
// handler and the transport's telemetry, or the twin measures a slower
// engine than the daemon runs.
func TestDecoratedEngineServesTheSameWay(t *testing.T) {
	tr := newTracer()
	bare, traced := burstEngine(t, nil), burstEngine(t, tr)
	if traced.Backend != bare.Backend || traced.Backend == "" {
		t.Errorf("backend: decorated %q, bare %q", traced.Backend, bare.Backend)
	}
	if traced.GSOTx != bare.GSOTx {
		t.Errorf("gso_tx: decorated %v, bare %v", traced.GSOTx, bare.GSOTx)
	}
	if traced.RxPerRead <= 1 || bare.RxPerRead <= 1 {
		t.Errorf("rx_per_read: decorated %.1f, bare %.1f; both must batch", traced.RxPerRead, bare.RxPerRead)
	}
	if traced.Handler["answered"] != bare.Handler["answered"] || traced.Handler["answered"] == 0 {
		t.Errorf("handler counters: decorated %v, bare %v", traced.Handler, bare.Handler)
	}
	if bare.GSOTx && (traced.TxTrains == 0) != (bare.TxTrains == 0) {
		t.Errorf("tx_trains: decorated %d, bare %d", traced.TxTrains, bare.TxTrains)
	}
	sums := summarize(tr.spans())[0]
	if sums == nil || sums.Packets != 48 || sums.HandNs <= 0 || sums.WriteNs <= 0 || sums.SelfNs <= 0 {
		t.Errorf("decorators recorded %+v for a 48-datagram burst", sums)
	}
	if sums != nil && sums.TurnNs < sums.HandNs+sums.WriteNs {
		t.Errorf("turn %d ns is shorter than its children %d + %d", sums.TurnNs, sums.HandNs, sums.WriteNs)
	}
}
