package daemon

import (
	"flag"
	"testing"

	"incod/internal/dataplane"
	"incod/internal/netio"
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
	var o EngineOptions
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o.RegisterFlags(fs)
	if err := fs.Parse([]string{"-sockets", "2", "-gsotx"}); err != nil {
		t.Fatalf("-gsotx must still parse: %v", err)
	}
	o.Addr = "127.0.0.1:0"
	echo := dataplane.HandlerFunc(func(in []byte, _ *[]byte) ([]byte, bool) { return in, true })
	for _, engine := range []string{"batched", "single"} {
		o.Engine = engine
		want := engine != "single" && netio.ProbeGSO() == nil
		e, err := ListenEngine(o, echo, dataplane.Config{})
		if err != nil {
			t.Skipf("reuseport group unavailable: %v", err)
		}
		st := e.Snapshot()
		e.Close()
		if st.GSOTx != want {
			t.Errorf("-engine %s (backend %s): gso_tx=%v, want %v", engine, st.Backend, st.GSOTx, want)
		}
	}
}
