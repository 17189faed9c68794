package daemon

import (
	"testing"

	"incod/internal/dataplane"
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
		echo, dataplane.Config{RxBatch: 16, TxBatch: 16})
	if err != nil {
		t.Skipf("reuseport group unavailable: %v", err)
	}
	defer batched.Close()
	st := batched.Snapshot()
	if !batched.Batched() || st.Sockets != 2 || st.RxBatch != 16 || st.TxBatch != 16 {
		t.Fatalf("batched engine geometry wrong: %+v", st)
	}
}
