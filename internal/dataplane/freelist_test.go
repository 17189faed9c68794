package dataplane

import (
	"net/netip"
	"testing"
)

// TestBatchedFreeListCachesAndDrains exercises the per-worker private
// buffer free lists: cross-shard handoffs make the receiving worker
// recycle the sender's buffers through its own list (visible as
// BuffersCached), and Close drains every cached buffer back to the pool
// so the bufsOut leak invariant still holds.
func TestBatchedFreeListCachesAndDrains(t *testing.T) {
	// Dispatch by payload parity: the client's one connected socket lands
	// every datagram on one SO_REUSEPORT socket (kernel 4-tuple hash),
	// so parity dispatch guarantees ~half the packets hand off to the
	// other worker no matter which socket receives them.
	e := newBatchedEngine(t, 2, echoHandler, Config{
		Name:    "test-freelist",
		ShardBy: func(b []byte, _ netip.AddrPort) uint64 { return uint64(b[len(b)-1]) },
	})
	e.Start()
	echoClient(t, e.LocalAddr().String(), "fl", 40)
	if t.Failed() {
		e.Close()
		return
	}
	e.Barrier() // all handed-off packets processed, buffers recycled
	st := e.Snapshot()
	if st.BuffersCached <= 0 {
		t.Fatalf("no buffers cached after cross-shard traffic: %+v", st)
	}
	if st.BuffersCached > st.BuffersInFlight {
		t.Fatalf("cached %d exceeds in-flight %d", st.BuffersCached, st.BuffersInFlight)
	}
	e.Close()
	st = e.Snapshot()
	if st.BuffersInFlight != 0 || st.BuffersCached != 0 {
		t.Fatalf("after Close: in-flight=%d cached=%d, want 0/0", st.BuffersInFlight, st.BuffersCached)
	}
}
