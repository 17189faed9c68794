package main

import (
	"hash/fnv"
	"strconv"
	"testing"
	"time"

	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/paxos"
)

// streamHash folds the first n request images of a workload's stream.
func streamHash(w *workloadSpec, seed int64, n int) uint64 {
	st := newStream(w, seed, 0, 1)
	h := fnv.New64a()
	var buf []byte
	var sl slot
	for i := 0; i < n; i++ {
		buf = st.next(buf[:0], uint16(i), &sl)
		h.Write(buf)
	}
	return h.Sum64()
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamHash(w, 7, 5000), streamHash(w, 7, 5000), streamHash(w, 8, 5000)
		if a != b {
			t.Errorf("%s: seed 7 gave two different request streams", w.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.Name)
		}
	}
}

func TestConnectionsPartitionTheKeys(t *testing.T) {
	w, _ := workloadByName("kvs_shift")
	owner := map[uint64]int{}
	for c := 0; c < 3; c++ {
		st := newStream(w, 1, c, 3)
		var sl slot
		for i := 0; i < 20000; i++ {
			st.next(nil, 0, &sl)
			if prev, seen := owner[sl.key]; seen && prev != c {
				t.Fatalf("key %d written by connections %d and %d", sl.key, prev, c)
			}
			owner[sl.key] = c
		}
	}
}

// served wires a generator connection to a real handler without a
// socket: requests staged by the connection are answered by the handler
// in-process, and the test decides what happens to each reply.
type served struct {
	g *genConn
	h dataplane.Handler
}

func newServed(t *testing.T, name string) *served {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g := &genConn{st: newStream(w, 1, 0, 1), base: time.Now(),
		slots: make([]slot, slotCount), arena: make([]byte, 0, maxBatch*maxDatagram)}
	g.begin(1024)
	s := &served{g: g}
	switch w.Proto {
	case protoKVS:
		store := kvs.NewShardedStore(1, 0)
		s.h = kvs.NewHandler(store)
		var sl slot
		for i := uint64(0); i < uint64(g.st.owned(kvsKeys)); i++ {
			req := g.st.preload(nil, 0, i, &sl)
			reply := s.answer(req)
			if k := g.st.check(reply, &sl); k != failNone {
				t.Fatalf("preload of key %d judged %s", i, failNames[k])
			}
		}
	case protoDNS:
		zone := dns.NewZone()
		for i := uint64(0); i < dnsNames; i++ {
			zone.Add(dnsName(i, true), dnsAddr(i), 300)
		}
		s.h = dns.NewHandler(zone)
	case protoPaxos:
		g.byInst = map[uint64]int32{}
		s.h = paxos.NewLiveAcceptor(0, nil, func(string, paxos.Msg) {})
	}
	return s
}

func (s *served) answer(req []byte) []byte {
	scratch := make([]byte, 0, 2048)
	out, ok := s.h.HandleDatagram(req, &scratch)
	if !ok {
		return nil
	}
	return append([]byte(nil), out...)
}

// exchange stages one request and returns it with its handler's reply.
func (s *served) exchange() (idx int32, reply []byte) {
	now := s.g.now()
	s.g.stage(now, now, false)
	idx = int32(uint16(s.g.nextID - 1))
	reply = s.answer(s.g.tx[len(s.g.tx)-1].buf[:s.g.tx[len(s.g.tx)-1].n])
	s.g.tx, s.g.arena = s.g.tx[:0], s.g.arena[:0]
	return idx, reply
}

func TestRealHandlersPassTheChecker(t *testing.T) {
	for _, w := range workloads {
		s := newServed(t, w.Name)
		for i := 0; i < 5000; i++ {
			_, reply := s.exchange()
			s.g.judge(reply, s.g.now(), false)
		}
		if f := s.g.res.failed(); f != 0 || s.g.res.correct != 5000 || s.g.open != 0 {
			t.Errorf("%s: %d correct, %d failed (%v), %d left open", w.Name, s.g.res.correct, f, s.g.res.fails, s.g.open)
		}
	}
}

func TestCheckerCountsEachInjectedFault(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			s := newServed(t, w.Name)
			g := s.g
			expect := func(what string, k failKind, want uint64) {
				t.Helper()
				if g.res.fails[k] != want {
					t.Fatalf("%s: %s count is %d, want %d (all: %v)", what, failNames[k], g.res.fails[k], want, g.res.fails)
				}
			}
			// A corrupted value: flip a byte of the payload's tail, which is
			// the value (KVS), the address (DNS) or the voted value (Paxos).
			// GET-bearing and answer-bearing requests are the ones with a
			// payload to corrupt, so draw until one comes up.
			for {
				idx, reply := s.exchange()
				kind := g.slots[idx].kind
				if kind == kindSet || kind == kindQueryNX {
					g.judge(reply, g.now(), false)
					continue
				}
				at := len(reply) - 1
				if kind == kindGet {
					at = len(reply) - len(endCR) - 1
				}
				reply[at] ^= 0x55
				g.judge(reply, g.now(), false)
				break
			}
			expect("corrupted value", failWrong, 1)

			// A wrong request id: the reply names a request that is not
			// outstanding. The request it was meant for then times out.
			_, reply := s.exchange()
			if w.Proto == protoPaxos {
				reply[8] ^= 0x40 // low byte of the instance
			} else {
				reply[0] ^= 0x40 // high byte of the id
			}
			g.judge(reply, g.now(), false)
			expect("wrong id", failUnexpected, 1)
			if g.open != 1 {
				t.Fatalf("misaddressed reply closed a request: %d open", g.open)
			}
			g.expire(g.now()+int64(drainGrace)+1, false)
			expect("unanswered", failTimeout, 1)

			// A duplicate: the same good reply twice.
			_, reply = s.exchange()
			g.judge(reply, g.now(), false)
			g.judge(reply, g.now(), false)
			expect("duplicate", failUnexpected, 2)

			// A late reply: right answer, after the deadline.
			_, reply = s.exchange()
			g.judge(reply, g.now()+int64(replyDeadline)+1, false)
			expect("late", failLate, 1)

			// Three requests never got a good answer in time; the duplicated
			// one did, once, and its second copy is the fourth failure.
			if want := g.res.sent - 3; g.res.correct != want {
				t.Fatalf("%d of %d requests judged correct, want %d", g.res.correct, g.res.sent, want)
			}
		})
	}
}

func TestWindowHoldsWhenFarBehindSchedule(t *testing.T) {
	// The generator is a second behind its schedule (the server stalled):
	// requests go out already overdue. They must still occupy the window
	// until answered or until the deadline has run from their send, or the
	// whole backlog would be sent at once.
	s := newServed(t, "kvs_get_host")
	g := s.g
	now := g.now()
	for i := 0; i < pacedWindow; i++ {
		g.stage(now-int64(time.Second), now, false)
	}
	g.expire(now+int64(time.Millisecond), false)
	if g.open != pacedWindow || g.res.fails[failTimeout] != 0 {
		t.Fatalf("overdue requests left the window on being sent: %d open, %d timed out", g.open, g.res.fails[failTimeout])
	}
	g.expire(now+int64(drainGrace)+1, false)
	if g.open != 0 || g.res.fails[failTimeout] != pacedWindow {
		t.Fatalf("after the deadline: %d open, %d timed out", g.open, g.res.fails[failTimeout])
	}
}

func TestRevoteAfterALostFirstVote(t *testing.T) {
	// The first vote on an instance is lost; a re-vote proposing another
	// value then legitimately wins. Once the first vote was acknowledged,
	// any other value is wrong.
	w, _ := workloadByName("paxos_vote_default")
	st := newStream(w, 1, 0, 1)
	reply := func(inst uint64, attempt uint32) []byte {
		var val [16]byte
		return paxos.AppendMsg(nil, paxos.Msg{Type: paxos.MsgPhase2B, Instance: inst, Value: paxosValue(val[:0], inst, attempt)})
	}
	revote := slot{key: 7, kind: kindRevote}
	if k := st.checkVote(reply(7, 99), &revote); k != failNone {
		t.Fatalf("re-vote's value after a lost first vote judged %s", failNames[k])
	}
	if k := st.checkVote(reply(7, 0), &slot{key: 7, kind: kindVote}); k != failNone {
		t.Fatalf("first vote judged %s", failNames[k])
	}
	if k := st.checkVote(reply(7, 99), &revote); k != failWrong {
		t.Fatalf("another value after an acknowledged first vote judged %s, want wrong", failNames[k])
	}
}

func TestStaleValueIsWrong(t *testing.T) {
	// A GET that leaves after a SET was acknowledged must not see the
	// value from before it: that is what a tier serving a stale copy
	// across a shift would look like.
	w, _ := workloadByName("kvs_shift")
	st := newStream(w, 1, 0, 1)
	st.lastSent[5], st.lastAcked[5] = 3, 3
	get := slot{key: 5, ver: 3, kind: kindGet}
	reply := func(ver uint32) []byte {
		b := []byte{0, 0, 0, 0, 0, 1, 0, 0}
		b = append(b, "VALUE "...)
		b = appendKey(b, 5)
		b = append(b, " 0 "...)
		val := st.appendValue(nil, 5, ver)
		b = append(b, strconv.Itoa(len(val))...)
		b = append(b, "\r\n"...)
		b = append(b, val...)
		return append(b, "\r\nEND\r\n"...)
	}
	if k := st.check(reply(3), &get); k != failNone {
		t.Fatalf("current version judged %s", failNames[k])
	}
	if k := st.check(reply(2), &get); k != failWrong {
		t.Fatalf("stale version judged %s, want wrong", failNames[k])
	}
	if k := st.check(reply(4), &get); k != failWrong {
		t.Fatalf("version never sent judged %s, want wrong", failNames[k])
	}
}

func TestEchoReplyMustBeTheRequest(t *testing.T) {
	st := newStream(echoSpec(workloads[0]), 1, 0, 1)
	var sl slot
	req := st.next(nil, 7, &sl)
	if k := st.check(append([]byte(nil), req...), &sl); k != failNone {
		t.Errorf("the request echoed back is judged %s", failNames[k])
	}
	bad := append([]byte(nil), req...)
	bad[len(bad)-3] ^= 1
	if k := st.check(bad, &sl); k != failWrong {
		t.Errorf("a corrupted echo is judged %s, want wrong", failNames[k])
	}
	if k := st.check(req[:len(req)-1], &sl); k != failWrong {
		t.Errorf("a truncated echo is judged %s, want wrong", failNames[k])
	}
}
