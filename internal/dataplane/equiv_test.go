package dataplane_test

// The equivalence matrix: every workload the daemons serve — host-only
// and with its nictier tier lit through a real nictier.Service shift —
// against every way this repository serves it: the simulated node with a
// batch window, the single-reader engine, and the batched engine on each
// transport rung, with and without pinned shards. The reference is always
// the simulated node at window 0, fed one datagram at a time: it makes no
// syscalls and takes the per-datagram path of the one dispatch core.
//
// A cell passes when its subject sends the same replies, the same Paxos
// fan-out in the same order, and ends with the same handler and tier
// counters. The node names each request's sender, so its replies are
// compared request by request; on a socket the replies are compared per
// window of outstanding requests, as a multiset, because a key-sharded
// engine may answer two shards' requests in either order. The client of
// an engine sends each window's runs of equal-size requests as
// UDP_SEGMENT trains wherever netio.ProbeGSO passes, so those cells also
// serve request trains: split by the socket where it takes UDP_GRO, by
// the kernel where it does not.

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"incod/internal/core"
	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/memcache"
	"incod/internal/netio"
	"incod/internal/nictier"
	"incod/internal/paxos"
	"incod/internal/simhost"
	"incod/internal/simnet"
)

// netioFallback is set by the netio_fallback build tag (fallback_test.go),
// under which netio.NewBatchConn never builds the mmsg rung.
var netioFallback bool

// workload is one row: a fresh server stack per run, the datagrams it is
// fed, and the reference's counters, pinned.
type workload struct {
	name  string
	cfg   dataplane.Config
	lit   bool // shift the stack's tier up before the script runs
	build func(send paxos.Sender) (dataplane.Handler, nictier.Tier)
	// seed is handled directly, before the tier is lit.
	seed   [][]byte
	script [][]byte
	pin    string
}

// subject is one column: the simulated node with a batch window, or an
// engine — single-reader when rung is empty.
type subject struct {
	name   string
	window time.Duration
	rung   string
	pin    bool
}

// run is what one subject did with a row. replies holds the replies of
// each window of requests, sorted; fan-out entries read "to|wire bytes".
// rxTrains is set when the engine's sockets took request trains whole.
type run struct {
	replies  [][]string
	fanOut   []string
	counters string
	rxTrains bool
}

// engineWindow is how many requests the client keeps outstanding.
const engineWindow = 32

var reusePort = sync.OnceValue(func() error {
	conns, err := netio.ListenReusePortGroup("udp4", "127.0.0.1:0", 2)
	for _, c := range conns {
		c.Close()
	}
	return err
})

var subjects = []subject{
	{name: "node-window", window: 50 * time.Microsecond},
	{name: "single-reader"},
	{name: "single", rung: "single"},
	{name: "mmsg", rung: "mmsg"},
	{name: "mmsg+pin", rung: "mmsg", pin: true},
	{name: "uring", rung: "uring"},
	{name: "uring+pin", rung: "uring", pin: true},
}

func TestEquivalenceMatrix(t *testing.T) { matrix(t, workloads(), subjects) }

// Slices of the matrix, under the names of the pairs they were first
// written for and with their rows named as they always have been.

func TestSimhostNodeVsEngineByteIdenticalReplies(t *testing.T) {
	matrix(t, pick("kvs/host", "kvs/tier", "dns/host", "dns/tier"), only("single-reader"))
}

func TestSimhostNodeVsEnginePaxosRoles(t *testing.T) {
	matrix(t, pick("acceptor=acceptor/host", "leader", "learner"), only("single-reader"))
}

func TestGSOTrainTxByteIdenticalReplies(t *testing.T) {
	matrix(t, pick("dns=dns/host", "kvs=kvs/host", "paxos=acceptor/host"), only("single", "mmsg", "uring"))
}

func TestPinnedBatchedVsSingleReaderByteIdenticalReplies(t *testing.T) {
	matrix(t, pick("dns=dns/host", "kvs=kvs/host"), only("single-reader", "mmsg+pin"))
}

func TestBatchedVsUringByteIdenticalReplies(t *testing.T) {
	matrix(t, pick("dns=dns/host", "kvs=kvs/host"), only("mmsg", "uring"))
}

// pick returns the named workloads; "label=name" runs one as label.
func pick(names ...string) []workload {
	var ws []workload
	for _, n := range names {
		label, name, renamed := strings.Cut(n, "=")
		for _, w := range workloads() {
			if w.name == name || !renamed && w.name == label {
				w.name = label
				ws = append(ws, w)
			}
		}
	}
	return ws
}

func only(names ...string) []subject {
	return slices.DeleteFunc(slices.Clone(subjects), func(s subject) bool { return !slices.Contains(names, s.name) })
}

// matrix runs every subject against every row, each cell compared with
// the reference.
func matrix(t *testing.T, rows []workload, subjects []subject) {
	ran, skipped, why := 0, 0, map[string]int{}
	trainCells, perDatagram := 0, 0
	for _, w := range rows {
		t.Run(w.name, func(t *testing.T) {
			perReq, ref := nodeRun(t, w, 0)
			if ref.counters != w.pin {
				t.Errorf("reference counters\n got %s\nwant %s", ref.counters, w.pin)
			}
			for _, s := range subjects {
				t.Run(s.name, func(t *testing.T) {
					if reason := s.unavailable(); reason != "" {
						skipped++
						why[reason]++
						t.Skip(reason)
					}
					ran++
					if s.window > 0 {
						nodeReplies, got := nodeRun(t, w, s.window)
						got.replies = windows(nodeReplies, 1)
						compare(t, got, windows(perReq, 1), ref)
						return
					}
					want := windows(perReq, engineWindow)
					got := engineRun(t, w, s, want)
					compare(t, got, want, ref)
					if got.rxTrains {
						trainCells++
					} else {
						perDatagram++
					}
				})
			}
		})
	}
	t.Logf("%d cells run, %d skipped %v; of the engine cells %d took request trains, %d served per datagram",
		ran, skipped, why, trainCells, perDatagram)
}

// unavailable names why the subject cannot run here, or returns "".
func (s subject) unavailable() string {
	if s.rung != "" && reusePort() != nil {
		return "no SO_REUSEPORT group"
	}
	if s.rung == "uring" && netio.ProbeUring() != nil {
		return "no io_uring"
	}
	return ""
}

// windows groups per-request replies n requests at a time, each group
// sorted, dropping the requests that got none.
func windows(perReq [][]byte, n int) [][]string {
	var out [][]string
	for off := 0; off < len(perReq); off += n {
		w := []string{}
		for _, r := range perReq[off:min(off+n, len(perReq))] {
			if r != nil {
				w = append(w, string(r))
			}
		}
		slices.Sort(w)
		out = append(out, w)
	}
	return out
}

func compare(t *testing.T, got run, want [][]string, ref run) {
	t.Helper()
	if len(got.replies) != len(want) {
		t.Fatalf("%d reply windows, reference %d", len(got.replies), len(want))
	}
	for k := range want {
		if i := firstDiff(got.replies[k], want[k]); i >= 0 {
			t.Fatalf("window %d, reply %d of %d (sorted): %q, reference %q", k, i, len(want[k]), at(got.replies[k], i), at(want[k], i))
		}
	}
	if i := firstDiff(got.fanOut, ref.fanOut); i >= 0 {
		t.Fatalf("fan-out %d of %d: %q, reference %q", i, len(ref.fanOut), at(got.fanOut, i), at(ref.fanOut, i))
	}
	if got.counters != ref.counters {
		t.Fatalf("counters\n      got %s\nreference %s", got.counters, ref.counters)
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<none>"
}

// counters is the comparable end state of a run: datagrams the tier
// served, fan-out messages sent, the handler's and the lit tier's
// counters (fmt prints maps in key order).
func counters(h dataplane.Handler, tier nictier.Tier, lit bool, offloaded uint64, fanOut int) string {
	var tc map[string]uint64
	if lit {
		tc = tier.(dataplane.StatsReporter).StatsCounters().Snapshot()
	}
	return fmt.Sprintf("offloaded=%d fanout=%d handler=%v tier=%v", offloaded, fanOut,
		h.(dataplane.StatsReporter).StatsCounters().Snapshot(), tc)
}

// prepare seeds a freshly served stack and lights its tier if the row
// asks for it.
func prepare(t *testing.T, w workload, h dataplane.Handler, tier nictier.Tier, dp nictier.Dataplane) {
	t.Helper()
	scratch := make([]byte, 0, 4096)
	for _, dg := range w.seed {
		h.HandleDatagram(dg, &scratch)
	}
	if w.lit {
		if err := nictier.NewService("equiv", dp, tier).Shift(core.Network); err != nil {
			t.Fatal(err)
		}
	}
}

// nodeRun serves the script on a simulated node: one datagram at a time
// at window 0, otherwise all of it inside one batch window. Request i is
// sent from "req/i", so the reply it gets is the one sent there.
func nodeRun(t *testing.T, w workload, window time.Duration) ([][]byte, run) {
	sim := simnet.New(1)
	net := simnet.NewNetwork(sim, simnet.LinkConfig{})
	var node *simhost.Node
	h, tier := w.build(func(to string, m paxos.Msg) { node.Sender()(to, m) })
	node = simhost.NewNode(net, "server", h, window, nil)
	prepare(t, w, h, tier, node)
	perReq := make([][]byte, len(w.script))
	var r run
	net.SetTracer(func(kind string, _ simnet.Time, src, dst simnet.Addr, payload []byte) {
		if kind != simnet.TraceSend || src != "server" {
			return
		}
		if i, ok := strings.CutPrefix(string(dst), "req/"); ok {
			n, _ := strconv.Atoi(i)
			perReq[n] = append([]byte(nil), payload...)
		} else {
			r.fanOut = append(r.fanOut, string(dst)+"|"+string(payload))
		}
	})
	for i, dg := range w.script {
		net.Send(&simnet.Packet{Src: simnet.Addr("req/" + strconv.Itoa(i)), Dst: "server", Payload: dg})
		if window == 0 {
			sim.Run()
		}
	}
	sim.Run()
	fast, _ := node.Served()
	r.counters = counters(h, tier, w.lit, fast, len(r.fanOut))
	return perReq, r
}

// engineRun serves the script on a real engine over loopback, from one
// client socket (one flow: the engine keeps its order), engineWindow
// requests per WriteBatch, in trains where the kernel segments them;
// each window's replies are awaited before the next goes out. The first
// window is queued on the sockets before the engine starts, so its first
// read takes the whole window and the flush has replies to coalesce
// however fast the engine wakes for later ones.
func engineRun(t *testing.T, w workload, s subject, want [][]string) run {
	var mu sync.Mutex
	var r run
	h, tier := w.build(func(to string, m paxos.Msg) {
		mu.Lock()
		r.fanOut = append(r.fanOut, to+"|"+string(paxos.Encode(m)))
		mu.Unlock()
	})
	e, addr := serveEngine(t, s, h, w.cfg)
	prepare(t, w, h, tier, e)
	mu.Lock()
	r.fanOut = nil // the seed's
	mu.Unlock()

	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bc := netio.NewBatchConn(conn.(*net.UDPConn))
	defer bc.Close()
	rx := make([]netio.Message, engineWindow)
	for i := range rx {
		rx[i].Buf = make([]byte, 4096)
	}
	trains := netio.ProbeGSO() == nil
	// Trains sent once the engine runs: by then every socket has decided
	// whether it takes UDP_GRO (the mmsg rung does at its first read).
	trainsSent := 0
	for k, off := 0, 0; off < len(w.script); k, off = k+1, off+engineWindow {
		tx, n := requests(w.script[off:min(off+engineWindow, len(w.script))], trains)
		if k > 0 {
			trainsSent += n
		}
		for len(tx) > 0 {
			n, err := bc.WriteBatch(tx)
			if err != nil {
				t.Fatal(err)
			}
			tx = tx[n:]
		}
		if k == 0 {
			e.Start()
		}
		got := []string{}
		for deadline := time.Now().Add(5 * time.Second); len(got) < len(want[k]); {
			_ = bc.SetReadDeadline(deadline)
			n, err := bc.ReadBatch(rx)
			if err != nil {
				t.Fatalf("window %d: %d of %d replies, then %v", k, len(got), len(want[k]), err)
			}
			for _, m := range rx[:n] {
				got = append(got, string(m.Buf[:m.N]))
			}
		}
		slices.Sort(got)
		r.replies = append(r.replies, got)
	}
	for deadline := time.Now().Add(5 * time.Second); e.Handled() < uint64(len(w.script)); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("engine handled %d of %d datagrams", e.Handled(), len(w.script))
		}
	}
	_ = bc.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, err := bc.ReadBatch(rx); err == nil {
		t.Fatalf("%d replies the reference did not send, the first %q", n, rx[0].Buf[:rx[0].N])
	}

	st := e.Snapshot()
	checkTransport(t, s, st, slices.ContainsFunc(want, func(w []string) bool { return len(w) > 0 }))
	checkRxTrains(t, st, w.cfg, trainsSent)
	mu.Lock()
	defer mu.Unlock()
	r.counters = counters(h, tier, w.lit, st.Offloaded, len(r.fanOut))
	r.rxTrains = st.RxTrains > 0
	return r
}

// requests packs a window's requests into one write batch: with trains
// set, each run of equal-size requests goes as one UDP_SEGMENT train. It
// returns the batch and how many trains it holds.
func requests(dgs [][]byte, trains bool) ([]netio.Message, int) {
	var ms []netio.Message
	n := 0
	for i := 0; i < len(dgs); {
		j := i + 1
		for trains && j < len(dgs) && j-i < netio.MaxTrainSegs && len(dgs[j]) == len(dgs[i]) && len(dgs[i]) > 0 {
			j++
		}
		if j-i == 1 {
			ms = append(ms, netio.Message{Buf: dgs[i], N: len(dgs[i])})
		} else {
			buf := slices.Concat(dgs[i:j]...)
			ms = append(ms, netio.Message{Buf: buf, N: len(buf), SegSize: len(dgs[i])})
			n++
		}
		i = j
	}
	return ms, n
}

// checkRxTrains holds the engine's sockets to the receive-train rules: a
// socket takes UDP_GRO only where its rung can (uring, or mmsg whose
// slots hold the largest train), one that does must have seen the trains
// sent to it arrive coalesced, and no train of these scripts is ever cut.
func checkRxTrains(t *testing.T, st dataplane.Stats, cfg dataplane.Config, trainsSent int) {
	t.Helper()
	smallSlots := cfg.MaxDatagram > 0 && cfg.MaxDatagram < netio.MaxTrainBytes
	if st.GRORx && (st.Backend == "single" || st.Backend == "mmsg" && smallSlots) {
		t.Fatalf("a %s socket with %d-byte slots took UDP_GRO", st.Backend, cfg.MaxDatagram)
	}
	if !st.GRORx && st.RxTrains > 0 {
		t.Fatalf("%d request trains arrived coalesced at sockets that report gro_rx=false", st.RxTrains)
	}
	if st.GRORx && trainsSent > 0 && st.RxTrains == 0 {
		t.Fatalf("%d request trains sent to GRO sockets, none arrived coalesced (stats %+v)", trainsSent, st)
	}
	if st.RxCutSegs > 0 {
		t.Fatalf("%d request datagrams cut from their trains", st.RxCutSegs)
	}
}

// checkTransport holds the engine to the rung it was built on: the
// backend it reports, reply trains wherever the rung and kernel take
// them (and rode, when the row has replies to coalesce), and pinned
// shards wherever this host lets a thread be pinned.
func checkTransport(t *testing.T, s subject, st dataplane.Stats, replies bool) {
	t.Helper()
	backend := s.rung
	if backend == "mmsg" && netioFallback {
		backend = "single"
	}
	if st.Backend != backend {
		t.Fatalf("engine reports backend %q, want %q", st.Backend, backend)
	}
	// The single-reader engine's workers send through the mmsg rung too.
	trains := (backend == "mmsg" || backend == "uring" || s.rung == "") && netio.ProbeGSO() == nil
	if st.GSOTx != trains {
		t.Fatalf("engine reports gso_tx=%v, want %v", st.GSOTx, trains)
	}
	if trains && replies && st.TxTrains == 0 {
		t.Fatalf("no reply trains were built (stats %+v): the train cells would be vacuous", st)
	}
	if s.pin && pinWorks() && !st.Pinned {
		t.Fatal("shards are not pinned, though this host pins threads")
	}
}

var pinWorks = sync.OnceValue(func() bool {
	res := make(chan error)
	go func() {
		runtime.LockOSThread() // never unlocked: the pinned thread exits with the goroutine
		_, err := netio.PinThread(0)
		res <- err
	}()
	return <-res == nil
})

// serveEngine builds the subject's engine, not yet started: single-reader
// over two shards, or batched over a two-socket reuseport group on the
// subject's rung.
func serveEngine(t *testing.T, s subject, h dataplane.Handler, cfg dataplane.Config) (*dataplane.Engine, string) {
	t.Helper()
	if s.rung == "" {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Shards = 2
		e := dataplane.New(conn, h, cfg)
		t.Cleanup(e.Close)
		return e, conn.LocalAddr().String()
	}
	conns, err := netio.ListenReusePortGroup("udp4", "127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	bcs := make([]netio.BatchConn, len(conns))
	for i, c := range conns {
		switch s.rung {
		case "uring":
			if bcs[i], err = netio.NewUringConn(c, netio.UringConfig{}); err != nil {
				t.Fatalf("uring conn over a reuseport socket, though the probe passed: %v", err)
			}
		case "single":
			bcs[i] = netio.NewSingleConn(c)
		default:
			bcs[i] = netio.NewBatchConn(c)
		}
	}
	cfg.PinShards = s.pin
	e := dataplane.NewBatchedConns(conns, bcs, h, cfg)
	t.Cleanup(e.Close)
	return e, conns[0].LocalAddr().String()
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func workloads() []workload {
	kvsCfg := dataplane.Config{Name: "equiv-kvs"}
	dnsCfg := dataplane.Config{Name: "equiv-dns", MaxDatagram: 4096}
	paxosCfg := dataplane.Config{Name: "equiv-paxos", MaxDatagram: 4096}
	kvsScript, dnsScript, acceptorScript := kvsScript(), dnsScript(), acceptorScript()
	acceptorSeed := [][]byte{paxos.Encode(paxos.Msg{Type: paxos.MsgPhase2A, Instance: 100, Ballot: 5,
		ClientID: 9, Seq: 42, ClientAddr: "c:1", Value: []byte("cmd")})} // the handoff carries state
	return []workload{
		{name: "kvs/host", cfg: kvsCfg, build: kvsStack, script: kvsScript,
			pin: "offloaded=0 fanout=0 handler=map[deletes:4 hits:95 malformed:1 misses:7 multiget:1 sets:20] tier=map[]"},
		{name: "kvs/tier", cfg: kvsCfg, lit: true, build: kvsStack, script: kvsScript,
			pin: "offloaded=93 fanout=0 handler=map[deletes:4 hits:2 malformed:1 misses:7 multiget:1 sets:20] tier=map[l1_hit:0 l2_hit:93 miss:6 passthrough:2 warmed_entries:80 write_through:24]"},
		{name: "dns/host", cfg: dnsCfg, build: dnsStack, script: dnsScript,
			pin: "offloaded=0 fanout=0 handler=map[answered:74 ignored:1 malformed:2 notimpl:2 nxdomain:3] tier=map[]"},
		{name: "dns/tier", cfg: dnsCfg, lit: true, build: dnsStack, script: dnsScript,
			pin: "offloaded=75 fanout=0 handler=map[answered:1 ignored:1 malformed:2 notimpl:2 nxdomain:1] tier=map[answered:73 nxdomain:2 passthrough:7 synced_records:33]"},
		{name: "acceptor/host", cfg: paxosCfg, build: acceptorStack, seed: acceptorSeed, script: acceptorScript,
			pin: "offloaded=0 fanout=286 handler=map[instances:80 log_bytes:4266 phase1a:6 reannounce:65 recovered:1 rejected:2 voted:78] tier=map[]"},
		{name: "acceptor/tier", cfg: paxosCfg, lit: true, build: acceptorStack, seed: acceptorSeed, script: acceptorScript,
			pin: "offloaded=151 fanout=286 handler=map[instances:0 log_bytes:0 phase1a:0 reannounce:0 recovered:0 rejected:0 voted:1] tier=map[handoff_instances:1 instances:80 log_bytes:4266 passthrough:6 phase1:6 phase2:145]"},
		{name: "leader", cfg: paxosCfg, build: func(send paxos.Sender) (dataplane.Handler, nictier.Tier) {
			return paxos.NewLiveLeader(1, []string{"a0", "a1", "a2"}, send), nil
		}, script: leaderScript(), pin: "offloaded=0 fanout=210 handler=map[fast_forward:2 gap_requests:2 ignored_inactive:0 recoveries:2 requests:67] tier=map[]"},
		{name: "learner", cfg: paxosCfg, build: func(send paxos.Sender) (dataplane.Handler, nictier.Tier) {
			return paxos.NewLiveLearner(2, "leader", send), nil
		}, script: learnerScript(), pin: "offloaded=0 fanout=43 handler=map[decided:43 gap_detected:0 late_votes:81 noop:1] tier=map[]"},
	}
}

func kvsStack(paxos.Sender) (dataplane.Handler, nictier.Tier) {
	store := kvs.NewShardedStore(4, 0)
	for i := 0; i < 80; i++ {
		store.Set(fmt.Sprintf("key-%d", i), kvs.Entry{Value: fmt.Appendf(nil, "val-%d", i)})
	}
	h := kvs.NewHandler(store)
	return h, nictier.NewKVS(h)
}

func kvsScript() [][]byte {
	framed := func(id int, body string) []byte {
		return memcache.EncodeFrame(memcache.Frame{RequestID: uint16(id), Total: 1}, []byte(body))
	}
	var s [][]byte
	for i := 0; i < 70; i++ { // seeded hits
		s = append(s, framed(i, fmt.Sprintf("get key-%d\r\n", i)))
	}
	for i := 0; i < 16; i++ {
		s = append(s, framed(100+i, fmt.Sprintf("set k-%02d %d 0 8\r\nvalue-%02d\r\n", i, i, i)))
	}
	for i := 0; i < 16; i++ {
		s = append(s, framed(200+i, fmt.Sprintf("get k-%02d\r\n", i)))
	}
	return append(s,
		[]byte("get key-3\r\n"), []byte("get nope\r\n"), framed(300, "get missing\r\n"), // raw hit, raw miss, framed miss
		[]byte("gets key-1 key-2 nope\r\n"),
		framed(301, "set fresh 0 0 1\r\nx\r\n"), framed(302, "delete key-75\r\n"), framed(303, "delete never\r\n"),
		framed(304, "get key-75\r\n"), framed(305, "get fresh\r\n"),
		[]byte("set quiet 7 0 2 noreply\r\nhi\r\n"), []byte("delete key-76 noreply\r\n"),
		[]byte("get quiet\r\n"), framed(306, "get key-76\r\n"),
		[]byte("\x00\x01garbage"),
		// Reads around a mutation of the same key, all in the last window.
		framed(307, "get key-77\r\n"), framed(308, "set key-77 5 0 3\r\nnew\r\n"), framed(309, "get key-77\r\n"),
		framed(310, "get later\r\n"), framed(311, "set later 0 0 1\r\ny\r\n"), framed(312, "get later\r\n"),
		framed(313, "get key-78\r\n"), framed(314, "delete key-78\r\n"), framed(315, "get key-78\r\n"),
	)
}

func dnsStack(paxos.Sender) (dataplane.Handler, nictier.Tier) {
	zone := dns.NewZone()
	zone.PopulateSequential(32)
	zone.Add("", [4]byte{127, 0, 0, 1}, 60) // the root, for the compressed query
	return dns.NewHandler(zone), nictier.NewDNS(zone)
}

func dnsScript() [][]byte {
	q := func(id int, name string) dns.Message { return dns.NewQuery(uint16(id), name) }
	var s [][]byte
	for i := 0; i < 70; i++ {
		s = append(s, must(dns.Encode(q(i, dns.SequentialName(i%32)))))
	}
	mx, ch := q(80, dns.SequentialName(3)), q(81, dns.SequentialName(4))
	mx.QType, ch.QClass = 15, 3
	for _, m := range []dns.Message{
		q(82, "HOST3.Example.COM"), q(83, "HoSt7.eXaMpLe.CoM"), // mixed case
		q(84, "missing.example.com"), q(85, "MISSING.EXAMPLE.COM"), // NXDOMAIN
		q(86, "a.b.c.d.e.f.g.h.i.jkl"), mx, ch, // the tier punts
		{ID: 87, Response: true, Name: "a.b", QType: dns.TypeA, QClass: dns.ClassIN}, // ignored
		q(88, ""),
	} {
		s = append(s, must(dns.Encode(m)))
	}
	return append(s, []byte{1, 2, 3}, []byte("\xff\xff garbage please ignore"),
		[]byte{0, 89, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 6, 0, 1, 0, 1}) // a pointer to the root: the Decode fallback
}

func acceptorStack(send paxos.Sender) (dataplane.Handler, nictier.Tier) {
	a := paxos.NewLiveAcceptor(3, []string{"l1", "l2"}, send)
	return a, nictier.NewPaxosAcceptor(a)
}

func acceptorScript() [][]byte {
	p := func(typ paxos.MsgType, inst uint64, ballot uint32, value string) []byte {
		return paxos.Encode(paxos.Msg{Type: typ, Instance: inst, Ballot: ballot, Value: []byte(value)})
	}
	s := [][]byte{
		p(paxos.MsgPhase1A, 100, 6, ""),   // a promise carrying the seeded vote
		p(paxos.MsgPhase2A, 101, 6, "c2"), // fresh vote
		p(paxos.MsgPhase2A, 101, 6, "c2"), // re-vote
		p(paxos.MsgPhase1A, 109, 1, ""),   // fresh promise
		paxos.Encode(paxos.Msg{Type: paxos.MsgPhase2A, Instance: 1, Ballot: 1, ClientID: 4, Seq: 9, ClientAddr: "client-9:1", Value: []byte("X")}),
		p(paxos.MsgPhase2A, 1, 1, "dup"), // settled re-vote
		p(paxos.MsgPhase1A, 1, 2, ""),    // promise above the vote
		p(paxos.MsgPhase2A, 1, 1, "dup"), // now through the rules
		p(paxos.MsgPhase2A, 1, 2, "Y"),   // promised overwrite (recovery)
		p(paxos.MsgPhase2A, 1, 1, "dup"), // republished
		p(paxos.MsgPhase1A, 7, 5, ""),
		p(paxos.MsgPhase2A, 7, 3, "low"), // nack
		p(paxos.MsgPhase2B, 1, 1, ""),    // not for an acceptor
		p(paxos.MsgClientRequest, 0, 0, "r"),
		{1, 2, 3},
	}
	for i := 0; i < 70; i++ { // votes and re-votes, across the 64-item chunk
		inst := uint64(i%9 + 21)
		s = append(s, paxos.Encode(paxos.Msg{Type: paxos.MsgPhase2A, Instance: inst, Ballot: 5,
			ClientID: uint16(i), Seq: uint64(i), ClientAddr: "client-1:9", Value: fmt.Appendf(nil, "cmd-%d", inst)}))
	}
	s = append(s,
		p(paxos.MsgPhase1A, 21, 9, ""),    // promise above the vote
		p(paxos.MsgPhase1A, 50, 2, ""),    // fresh promise
		p(paxos.MsgPhase2A, 50, 1, "low"), // below the promise: nack
		p(paxos.MsgPhase2A, 50, 2, "ok"),
		p(paxos.MsgPhase2A, 60, 1, ""), // empty value
		[]byte{9},
	)
	for i := 0; i < 64; i++ { // same-size 2Bs: a train's worth per window
		s = append(s, paxos.Encode(paxos.Msg{Type: paxos.MsgPhase2A, Instance: uint64(201 + i), Ballot: 3,
			Seq: uint64(i), ClientAddr: "client-1:2345", Value: []byte("value-of-modest-size")}))
	}
	return s
}

// leaderScript gives every request a client address: one without takes
// the datagram's source, which the node does not have.
func leaderScript() [][]byte {
	req := func(id uint16, seq uint64, value string) []byte {
		return paxos.Encode(paxos.Msg{Type: paxos.MsgClientRequest, ClientID: id, Seq: seq, ClientAddr: "client-9:1", Value: []byte(value)})
	}
	s := [][]byte{
		req(4, 1, "X"),
		paxos.Encode(paxos.Msg{Type: paxos.MsgPhase2B, Instance: 30, Ballot: 1, VBallot: 1, LastVoted: 30}), // fast-forward
		req(4, 2, "Y"),
		paxos.Encode(paxos.Msg{Type: paxos.MsgGapRequest, Instance: 12}),
		paxos.Encode(paxos.Msg{Type: paxos.MsgPhase1B, Instance: 12, Ballot: 2, NodeID: 0, LastVoted: 31}),
		paxos.Encode(paxos.Msg{Type: paxos.MsgPhase1B, Instance: 12, Ballot: 2, NodeID: 1, VBallot: 1,
			ClientID: 4, Seq: 7, ClientAddr: "client-9:1", Value: []byte("held")}),
		paxos.Encode(paxos.Msg{Type: paxos.MsgPhase1B, Instance: 12, Ballot: 2, NodeID: 2}), // after the quorum
		{0},
	}
	for i := 0; i < 64; i++ {
		s = append(s, req(uint16(i), uint64(i), fmt.Sprintf("req-%d", i)))
	}
	return append(s,
		paxos.Encode(paxos.Msg{Type: paxos.MsgPhase2B, Instance: 120, LastVoted: 120, NodeID: 1}), // fast-forward
		req(5, 99, "after"), // lands past it
		paxos.Encode(paxos.Msg{Type: paxos.MsgGapRequest, Instance: 12}), // again: a higher ballot
	)
}

func learnerScript() [][]byte {
	vote := func(inst uint64, ballot uint32, node uint16, value string) []byte {
		return paxos.Encode(paxos.Msg{Type: paxos.MsgPhase2B, Instance: inst, Ballot: ballot, VBallot: ballot,
			NodeID: node, LastVoted: inst, ClientID: 4, Seq: inst, ClientAddr: "client-9:1", Value: []byte(value)})
	}
	s := [][]byte{
		vote(1, 1, 0, "X"), vote(1, 1, 0, "X"), vote(1, 1, 1, "X"), vote(1, 1, 2, "X"),
		vote(2, 1, 0, "A"), vote(2, 2, 1, ""), vote(2, 2, 2, ""), // a no-op outvotes a lower value
		vote(3, 1, 0, "P"), vote(3, 1, 1, "Q"), vote(3, 1, 2, "Q"), // one ballot, two values: only Q has a quorum
	}
	for inst := uint64(101); inst <= 140; inst++ {
		v := fmt.Sprintf("v-%d", inst)
		s = append(s, vote(inst, 4, 0, v), vote(inst, 4, 1, v), vote(inst, 4, 2, v), vote(inst, 4, 1, v)) // the last one late
	}
	return append(s, paxos.Encode(paxos.Msg{Type: paxos.MsgPhase1B, Instance: 1}), []byte{9})
}
