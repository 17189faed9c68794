package dataplane_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"incod/internal/memcache"
)

// FuzzDrivenTurn serves a fuzzed KVS op stream on the engine a simulated
// node drives with a batch window, host-only or with the tier lit, cut
// into windows at fuzzed points, and holds every reply and the final
// handler and tier counters to ServeOne's, one datagram at a time. The
// first byte picks the placement; each later byte is one op on one of
// four keys: get, set, delete, multi-get, a malformed datagram, or a cut.
func FuzzDrivenTurn(f *testing.F) {
	f.Add([]byte{0, 0x00, 0x11, 0x20, 0x05, 0x32, 0x03, 0x14, 0x00})
	f.Add([]byte{1, 0x00, 0x10, 0x01, 0x00, 0x05, 0x02, 0x00, 0x21, 0x23, 0x04, 0x30})
	long := []byte{1}
	for i := range 100 {
		long = append(long, byte(i*37))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		w := workload{name: "fuzz", lit: data[0]&1 == 1, build: kvsStack}
		w.script, w.cuts = fuzzScript(data[1:])
		want, ref := refRun(t, w)
		got, node := nodeRun(t, w, 10*time.Microsecond)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("request %d %q: reply %q, ServeOne gives %q", i, w.script[i], got[i], want[i])
			}
		}
		if node.counters != ref.counters {
			t.Fatalf("counters\n     node %s\nreference %s", node.counters, ref.counters)
		}
	})
}

// fuzzScript turns op bytes into framed KVS requests and window cuts.
// An op's low bits pick what it does, its high bits the key (and a
// set's flags).
func fuzzScript(ops []byte) (script [][]byte, cuts []int) {
	for _, b := range ops {
		key := fmt.Sprintf("key-%d", b>>4&3)
		var body string
		switch b % 6 {
		case 0:
			body = "get " + key + "\r\n"
		case 1:
			body = fmt.Sprintf("set %s %d 0 5\r\nv-%03d\r\n", key, b>>6, b)
		case 2:
			body = "delete " + key + "\r\n"
		case 3:
			body = fmt.Sprintf("get %s key-%d %s\r\n", key, (b>>4+1)&3, key)
		case 4:
			body = "\x00get " + key
		case 5:
			cuts = append(cuts, len(script))
			continue
		}
		script = append(script, memcache.EncodeFrame(memcache.Frame{RequestID: uint16(len(script)), Total: 1}, []byte(body)))
	}
	return script, cuts
}
