package kvs

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"incod/internal/dataplane"
	"incod/internal/memcache"
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

// TestHandleBatchIsSequential: a batch that reads, writes, re-reads and
// deletes one key gets exactly what the same datagrams get one at a time.
func TestHandleBatchIsSequential(t *testing.T) {
	got := sequentialTwins(t, [][][]byte{{
		[]byte("get k\r\n"),
		[]byte("set k 7 0 2\r\nhi\r\n"),
		memcache.EncodeFrame(memcache.Frame{RequestID: 9, Total: 1}, []byte("get k\r\n")),
		[]byte("delete k\r\n"),
		[]byte("get k\r\n"),
		[]byte("set j 1 0 3 noreply\r\nyes\r\n"),
		[]byte("get j k\r\n"),
	}}, "j", "k")
	want := []string{
		"END\r\n",
		"STORED\r\n",
		"\x00\x09\x00\x00\x00\x01\x00\x00VALUE k 7 2\r\nhi\r\nEND\r\n",
		"DELETED\r\n",
		"END\r\n",
		"",
		"VALUE j 1 3\r\nyes\r\nEND\r\n",
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Errorf("reply %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// FuzzHandleBatchSequential cuts an op stream into batches at points the
// input picks and serves it through HandleBatch on one store and through
// HandleDatagram on another: replies, counters and every key's entry
// must match. Two bytes an op: the first holds the kind (low three
// bits), framing (bit 3) and a batch cut after the op (bit 7); the
// second the key (low two bits) and an argument.
func FuzzHandleBatchSequential(f *testing.F) {
	f.Add([]byte{0, 0, 1, 4, 0, 0, 2, 0, 0x80, 0})
	f.Add([]byte{1, 1, 0x0b, 6, 0x83, 1, 8, 1, 4, 5, 0, 1, 5, 1, 0x80, 1, 6, 0, 7, 2, 3, 2})
	f.Add([]byte{0x08, 2, 0x09, 2, 0x0c, 2, 0x81, 3, 2, 3, 0x88, 3, 5, 3, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := []string{"a", "bb", "key-3", "k4"}
		var batches [][][]byte
		var cur [][]byte
		for op := 0; len(data) >= 2; op, data = op+1, data[2:] {
			k, arg := keys[data[1]&3], int(data[1]>>2)
			var d []byte
			switch data[0] & 7 {
			case 0:
				d = fmt.Appendf(nil, "get %s\r\n", k)
			case 1, 4: // set, with an expiry when arg is odd; noreply on 4
				val := bytes.Repeat([]byte{'a' + byte(op%26)}, arg)
				d = fmt.Appendf(nil, "set %s %d %d %d", k, op, 1000*(arg&1), len(val))
				if data[0]&7 == 4 {
					d = append(d, " noreply"...)
				}
				d = append(append(append(d, "\r\n"...), val...), "\r\n"...)
			case 2, 5:
				d = fmt.Appendf(nil, "delete %s", k)
				if data[0]&7 == 5 {
					d = append(d, " noreply"...)
				}
				d = append(d, "\r\n"...)
			case 3:
				d = fmt.Appendf(nil, "get %s %s\r\n", k, keys[arg&3])
			case 6:
				d = fmt.Appendf(nil, "bogus %s\r\n", k)
			case 7: // a value shorter than its declared length
				d = fmt.Appendf(nil, "set %s 0 0 %d\r\nx\r\n", k, arg+2)
			}
			if data[0]&8 != 0 {
				d = memcache.EncodeFrame(memcache.Frame{RequestID: uint16(op), Total: 1}, d)
			}
			cur = append(cur, d)
			if data[0]&0x80 != 0 {
				batches, cur = append(batches, cur), nil
			}
		}
		sequentialTwins(t, append(batches, cur), keys...)
	})
}

// sequentialTwins serves batches through HandleBatch on one store and the
// same datagrams one at a time through HandleDatagram on a twin, failing
// on the first reply, counter or stored entry that differs. It returns
// the batch side's replies in order.
func sequentialTwins(t *testing.T, batches [][][]byte, keys ...string) [][]byte {
	t.Helper()
	hb, hd := NewHandler(NewShardedStore(2, 0)), NewHandler(NewShardedStore(2, 0))
	var replies [][]byte
	for _, batch := range batches {
		items := mkItems(batch)
		hb.HandleBatch(items)
		for _, it := range items {
			scratch := make([]byte, 0, 64)
			out, ok := hd.HandleDatagram(it.In, &scratch)
			if ok != (it.Out != nil) || !bytes.Equal(out, it.Out) {
				t.Fatalf("datagram %d %q: batch replied %q, one at a time %q", len(replies), it.In, it.Out, out)
			}
			replies = append(replies, it.Out)
		}
	}
	if b, d := hb.StatsCounters().Snapshot(), hd.StatsCounters().Snapshot(); !maps.Equal(b, d) {
		t.Fatalf("counters: batch %v, one at a time %v", b, d)
	}
	if b, d := hb.Store().Hits(), hd.Store().Hits(); b != d {
		t.Fatalf("store hits: batch %d, one at a time %d", b, d)
	}
	for _, k := range keys {
		eb, okb := hb.Store().GetString(k, 0)
		ed, okd := hd.Store().GetString(k, 0)
		if okb != okd || eb.Flags != ed.Flags || !bytes.Equal(eb.Value, ed.Value) || (eb.Expires == 0) != (ed.Expires == 0) {
			t.Fatalf("key %s: batch %v %+v, one at a time %v %+v", k, okb, eb, okd, ed)
		}
	}
	return replies
}
