package kvs

import (
	"testing"

	"incod/internal/dataplane"
)

// mkItems builds BatchItems with independent scratch buffers for the
// given datagrams.
func mkItems(datagrams [][]byte) []*dataplane.BatchItem {
	items := make([]*dataplane.BatchItem, len(datagrams))
	for i, dg := range datagrams {
		scratch := make([]byte, 0, 1024)
		items[i] = &dataplane.BatchItem{In: dg, Scratch: &scratch}
	}
	return items
}

// TestNoreplySuppressesAcknowledgement checks both serving paths: a
// noreply mutation applies to the store but produces no reply datagram.
func TestNoreplySuppressesAcknowledgement(t *testing.T) {
	h := NewHandler(NewShardedStore(2, 0))

	scratch := make([]byte, 0, 1024)
	if out, ok := h.HandleDatagram([]byte("set a 7 0 2 noreply\r\nhi\r\n"), &scratch); ok || out != nil {
		t.Fatalf("noreply set replied (%q, %v)", out, ok)
	}
	if e, ok := h.Store().Get([]byte("a"), 0); !ok || string(e.Value) != "hi" || e.Flags != 7 {
		t.Fatalf("noreply set not applied: %+v, %v", e, ok)
	}
	if out, ok := h.HandleDatagram([]byte("delete a noreply\r\n"), &scratch); ok || out != nil {
		t.Fatalf("noreply delete replied (%q, %v)", out, ok)
	}
	if _, ok := h.Store().Get([]byte("a"), 0); ok {
		t.Fatal("noreply delete not applied")
	}

	items := mkItems([][]byte{
		[]byte("set b 0 0 2 noreply\r\nyo\r\n"),
		[]byte("get b\r\n"),
	})
	h.HandleBatch(items)
	if items[0].Out != nil {
		t.Fatalf("batch noreply set replied: %q", items[0].Out)
	}
	if string(items[1].Out) != "VALUE b 0 2\r\nyo\r\nEND\r\n" {
		t.Fatalf("in-batch get after noreply set: %q", items[1].Out)
	}

	items = mkItems([][]byte{[]byte("delete b noreply\r\n")})
	h.HandleBatch(items)
	if items[0].Out != nil {
		t.Fatalf("batch noreply delete replied: %q", items[0].Out)
	}
	if _, ok := h.Store().Get([]byte("b"), 0); ok {
		t.Fatal("batch noreply delete not applied")
	}
}

// TestHandleBatchMutationThenGet pins the documented in-batch ordering:
// a SET classified in pass one is visible to a GET of the same key
// resolved in pass two, regardless of their order in the batch.
func TestHandleBatchMutationThenGet(t *testing.T) {
	h := NewHandler(NewShardedStore(2, 0))
	items := mkItems([][]byte{
		[]byte("get k\r\n"),
		[]byte("set k 7 0 2\r\nhi\r\n"),
	})
	h.HandleBatch(items)
	if string(items[1].Out) != "STORED\r\n" {
		t.Fatalf("set reply %q", items[1].Out)
	}
	if string(items[0].Out) == "END\r\n" {
		t.Fatalf("GET resolved before the batch's SET; documented semantics say it observes it")
	}
}
