package daemon

import (
	"flag"
	"net"
	"testing"

	"incod/internal/dataplane"
	"incod/internal/netio"
	"incod/internal/protocol"
)

func TestListenEngineModes(t *testing.T) {
	echo := dataplane.HandlerFunc(func(in []byte, scratch *[]byte) ([]byte, bool) {
		*scratch = append((*scratch)[:0], in...)
		return *scratch, true
	})

	single, err := ListenEngine(EngineOptions{Addr: "127.0.0.1:0"}, echo, dataplane.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if single.Batched() {
		t.Fatal("Sockets=0 must build the single-reader engine")
	}

	batched, err := ListenEngine(EngineOptions{Addr: "127.0.0.1:0", Sockets: 2},
		echo, dataplane.Config{})
	if err != nil {
		t.Skipf("reuseport group unavailable: %v", err)
	}
	defer batched.Close()
	st := batched.Snapshot()
	if !batched.Batched() || st.Sockets != 2 || st.RxBatch != 32 || st.TxBatch != 32 {
		t.Fatalf("batched engine geometry wrong: %+v", st)
	}
}

// Reply trains are the engine's decision, not a flag: on wherever the
// rung sends UDP_SEGMENT and the kernel probe passes (INCOD_NO_GSOTX and
// the netio_fallback tag fail it), off on the single rung, and -gsotx is
// accepted and changes nothing.
func TestListenEngineDecidesReplyTrains(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := RegisterFlags(fs, protocol.KVS)
	if err := fs.Parse([]string{"-addr", "127.0.0.1:0", "-sockets", "2", "-gsotx"}); err != nil {
		t.Fatalf("-gsotx must still parse: %v", err)
	}
	echo := dataplane.HandlerFunc(func(in []byte, _ *[]byte) ([]byte, bool) { return in, true })
	batched, err := ListenEngine(f.EngineOptions, echo, dataplane.Config{})
	if err != nil {
		t.Skipf("reuseport group unavailable: %v", err)
	}
	st := batched.Snapshot()
	batched.Close()
	if want := netio.ProbeGSO() == nil; st.GSOTx != want {
		t.Errorf("-engine batched (backend %s): gso_tx=%v, want %v", st.Backend, st.GSOTx, want)
	}

	// The single rung, which NewBatchConn falls back to off Linux and
	// under the netio_fallback tag, sends no trains.
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	single := dataplane.NewBatchedConns([]net.PacketConn{conn}, []netio.BatchConn{netio.NewSingleConn(conn)}, echo, dataplane.Config{})
	st = single.Snapshot()
	single.Close()
	if st.GSOTx {
		t.Errorf("single rung (backend %s): gso_tx=true, want false", st.Backend)
	}

	f.Engine = "single"
	if e, err := ListenEngine(f.EngineOptions, echo, dataplane.Config{}); err == nil {
		e.Close()
		t.Error("-engine single must be refused: the single rung is a fallback, not a choice")
	}
}
