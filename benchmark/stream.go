package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"incod/internal/memcache"
	"incod/internal/paxos"
	"incod/internal/trafficgen"
)

// A stream turns (workload, seed, connection) into a request sequence
// and judges the replies. The sequence is a pure function of those three
// inputs — it never looks at a reply or a clock — so the same seed sends
// byte-identical traffic on every run and on both sides of a comparison.

type reqKind uint8

const (
	kindGet reqKind = iota
	kindSet
	kindQuery   // DNS name present in the zone
	kindQueryNX // DNS name absent from the zone
	kindVote    // Paxos Phase2A on a fresh instance
	kindRevote  // Paxos Phase2A on an instance voted on earlier
	kindEcho    // reference echo server: the reply is the request
)

// failKind classifies what was wrong with a request's outcome.
type failKind uint8

const (
	failNone       failKind = iota
	failTimeout             // no reply within the deadline
	failLate                // a reply, but after the deadline
	failUndecoded           // reply does not parse as the protocol's answer
	failWrong               // parses, but is not the answer to this request
	failUnexpected          // reply for a request that is not outstanding (duplicate or stray)
	failKinds
)

var failNames = [failKinds]string{"ok", "timeout", "late", "undecodable", "wrong", "unexpected"}

// slot is one outstanding request's bookkeeping. The id a reply carries
// (memcached frame id, DNS id) indexes the slot table directly; Paxos
// replies carry only the instance, so its slots also chain per instance.
type slot struct {
	due, sent int64  // ns on the run clock
	key       uint64 // key index, name index, or Paxos instance
	ver       uint32 // SET: version written. GET: oldest version the reply may carry
	aux       uint32 // DNS: case mask of the qname as sent
	kind      reqKind
	open      bool
	expired   bool  // already counted as a timeout; a straggling reply is not counted again
	next      int32 // Paxos: next slot waiting on the same instance, -1 = none
}

const (
	kvsKeys      = 100_000
	kvsFixedSize = 64
	dnsNames     = 10_000
	dnsAbsentPct = 10
	paxosRevote  = 10   // percent of votes that repeat an earlier instance
	paxosWindow  = 1024 // a re-vote targets one of the last this-many instances
	paxosLag     = 512  // ...but not the most recent ones, which may still be in flight
	zipfS        = 1.06
)

// fillPattern is the value filler both the sender and the checker index
// into; any deterministic non-constant bytes do.
var fillPattern = func() []byte {
	p := make([]byte, 4096)
	r := rand.New(rand.NewSource(0x1C0D))
	for i := range p {
		p[i] = "abcdefghijklmnopqrstuvwxyz0123456789"[r.Intn(36)]
	}
	return p
}()

const hexDigits = "0123456789abcdef"

func appendHex32(dst []byte, v uint32) []byte {
	for s := 28; s >= 0; s -= 4 {
		dst = append(dst, hexDigits[(v>>uint(s))&0xF])
	}
	return dst
}

func parseHex32(b []byte) (uint32, bool) {
	var v uint32
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint32(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// stream is one connection's generator and checker. Keys (and names and
// instances) are partitioned across connections — conn c owns indices
// congruent to c modulo conns — so every key has exactly one writer and
// the version window a GET may legally return is known locally.
type stream struct {
	w           *workloadSpec
	conn, conns int
	rng         *rand.Rand
	zipf        *rand.Zipf
	sizes       []int // KVS: value size table, indexed by a hash of (key, version)
	seq         uint64

	// KVS: per-key version bookkeeping.
	lastSent, lastAcked []uint32

	// Paxos: fresh instances issued so far by this connection, and for the
	// recent ones whether the first vote was acknowledged: acked[n%len] is
	// n once fresh instance number n has been answered.
	fresh uint64
	acked []uint64
}

func streamSeed(seed int64, workload string, conn int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", workload, seed, conn)
	return int64(h.Sum64())
}

func newStream(w *workloadSpec, seed int64, conn, conns int) *stream {
	s := &stream{w: w, conn: conn, conns: conns,
		rng: rand.New(rand.NewSource(streamSeed(seed, w.Name, conn)))}
	switch w.Proto {
	case protoKVS:
		s.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(s.owned(kvsKeys))-1)
		s.lastSent = make([]uint32, kvsKeys)
		s.lastAcked = make([]uint32, kvsKeys)
		s.sizes = make([]int, 4096)
		etc := trafficgen.NewETC(rand.New(rand.NewSource(streamSeed(seed, w.Name+"/sizes", 0))), kvsKeys)
		for i := range s.sizes {
			if w.ETC {
				s.sizes[i] = etc.ValueSize()
			} else {
				s.sizes[i] = kvsFixedSize
			}
		}
	case protoDNS:
		s.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(s.owned(dnsNames))-1)
	case protoPaxos:
		s.acked = make([]uint64, 4*(paxosWindow+paxosLag))
	case protoEcho:
	}
	return s
}

// owned is how many of n indices this connection owns.
func (s *stream) owned(n int) int { return (n - s.conn + s.conns - 1) / s.conns }

// index maps the i-th owned index to its global index.
func (s *stream) index(i uint64) uint64 { return i*uint64(s.conns) + uint64(s.conn) }

// --- KVS -------------------------------------------------------------------

func appendKey(dst []byte, key uint64) []byte {
	dst = append(dst, 'k')
	var d [7]byte
	for i := 6; i >= 0; i-- {
		d[i] = byte('0' + key%10)
		key /= 10
	}
	return append(dst, d[:]...)
}

func (s *stream) valueSize(key uint64, ver uint32) int {
	return s.sizes[(key*2654435761+uint64(ver)*40503)%uint64(len(s.sizes))]
}

// appendValue writes the value of (key, version): a 16-byte header naming
// both, then filler that also depends on both, so a value torn between
// two versions or served under the wrong key cannot pass the check.
func (s *stream) appendValue(dst []byte, key uint64, ver uint32) []byte {
	n := s.valueSize(key, ver)
	dst = appendHex32(dst, uint32(key))
	dst = appendHex32(dst, ver)
	off := int((key*31 + uint64(ver)*17) % 2048)
	return append(dst, fillPattern[off:off+n-16]...)
}

func (s *stream) appendSet(dst []byte, id uint16, key uint64, ver uint32) []byte {
	dst = memcache.AppendFrame(dst, memcache.Frame{RequestID: id, Total: 1})
	dst = append(dst, "set "...)
	dst = appendKey(dst, key)
	dst = append(dst, " 0 0 "...)
	dst = strconv.AppendInt(dst, int64(s.valueSize(key, ver)), 10)
	dst = append(dst, '\r', '\n')
	dst = s.appendValue(dst, key, ver)
	return append(dst, '\r', '\n')
}

func appendGet(dst []byte, id uint16, key uint64) []byte {
	dst = memcache.AppendFrame(dst, memcache.Frame{RequestID: id, Total: 1})
	dst = append(dst, "get "...)
	dst = appendKey(dst, key)
	return append(dst, '\r', '\n')
}

// preload appends the SET that installs version 1 of the i-th owned key.
func (s *stream) preload(dst []byte, id uint16, i uint64, sl *slot) []byte {
	key := s.index(i)
	s.lastSent[key] = 1
	*sl = slot{key: key, ver: 1, kind: kindSet, next: -1}
	return s.appendSet(dst, id, key, 1)
}

// --- DNS -------------------------------------------------------------------

// dnsName is the fixed-width name of index i: present names start with
// 'n', absent ones with 'x', so both kinds make same-size queries and a
// train of them segments evenly.
func dnsName(i uint64, present bool) string {
	c := byte('x')
	if present {
		c = 'n'
	}
	return fmt.Sprintf("%c%05d.zone.test", c, i)
}

// dnsAddr is the zone's address for name i.
func dnsAddr(i uint64) [4]byte { return [4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)} }

// appendQName writes the wire-form name with the letters selected by mask
// upper-cased (0x20 mixing), which the server must fold for lookup and
// echo back as sent.
func appendQName(dst []byte, i uint64, present bool, mask uint32) []byte {
	name := dnsName(i, present)
	bit := uint(0)
	start := 0
	for end := 0; end <= len(name); end++ {
		if end < len(name) && name[end] != '.' {
			continue
		}
		dst = append(dst, byte(end-start))
		for _, c := range []byte(name[start:end]) {
			if c >= 'a' && c <= 'z' {
				if mask>>bit&1 == 1 {
					c -= 'a' - 'A'
				}
				bit++
			}
			dst = append(dst, c)
		}
		start = end + 1
	}
	return append(dst, 0)
}

func appendQuery(dst []byte, id uint16, i uint64, present bool, mask uint32) []byte {
	dst = binary.BigEndian.AppendUint16(dst, id)
	dst = append(dst, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0) // flags, QD=1, AN=NS=AR=0
	dst = appendQName(dst, i, present, mask)
	return append(dst, 0, 1, 0, 1) // A, IN
}

// --- Paxos -----------------------------------------------------------------

// paxosValue is the 16-byte value proposed for an instance. attempt 0 is
// the first proposal; a re-vote proposes another value and must get the
// first one back.
func paxosValue(dst []byte, inst uint64, attempt uint32) []byte {
	dst = binary.BigEndian.AppendUint64(dst, inst*0x9E3779B97F4A7C15+uint64(attempt))
	return binary.BigEndian.AppendUint64(dst, inst^uint64(attempt)<<32)
}

func appendVote(dst []byte, inst uint64, attempt uint32, seq uint64) []byte {
	var val [16]byte
	v := paxos.MsgView{Type: paxos.MsgPhase2A, Instance: inst, Ballot: 1,
		ClientID: 1, Seq: seq, Value: paxosValue(val[:0], inst, attempt)}
	return paxos.AppendMsgView(dst, &v)
}

// --- the sequence ----------------------------------------------------------

// next appends request number s.seq's wire image to dst and describes it
// in sl. id is the slot index the reply will carry back (unused by
// Paxos). The caller stamps due/sent.
func (s *stream) next(dst []byte, id uint16, sl *slot) []byte {
	s.seq++
	switch s.w.Proto {
	case protoKVS:
		key := s.index(s.zipf.Uint64())
		if s.rng.Float64() < s.w.GetFrac {
			*sl = slot{key: key, ver: s.lastAcked[key], kind: kindGet, next: -1}
			return appendGet(dst, id, key)
		}
		ver := s.lastSent[key] + 1
		s.lastSent[key] = ver
		*sl = slot{key: key, ver: ver, kind: kindSet, next: -1}
		return s.appendSet(dst, id, key, ver)
	case protoDNS:
		i := s.index(s.zipf.Uint64())
		present := s.rng.Intn(100) >= dnsAbsentPct
		mask := s.rng.Uint32()
		kind := kindQuery
		if !present {
			kind = kindQueryNX
		}
		*sl = slot{key: i, aux: mask, kind: kind, next: -1}
		return appendQuery(dst, id, i, present, mask)
	case protoEcho:
		key := s.rng.Uint64() % kvsKeys
		*sl = slot{key: key, kind: kindEcho, next: -1}
		return appendGet(dst, id, key)
	default:
		if s.fresh > paxosWindow+paxosLag && s.rng.Intn(100) < paxosRevote {
			back := paxosLag + uint64(s.rng.Intn(paxosWindow))
			inst := s.index(s.fresh - back)
			*sl = slot{key: inst, kind: kindRevote, next: -1}
			return appendVote(dst, inst, uint32(s.seq), s.seq)
		}
		s.fresh++
		inst := s.index(s.fresh)
		*sl = slot{key: inst, kind: kindVote, next: -1}
		return appendVote(dst, inst, 0, s.seq)
	}
}

// replyID extracts the slot index a KVS or DNS reply carries.
func replyID(b []byte) (uint16, bool) {
	if len(b) < 2 {
		return 0, false
	}
	return binary.BigEndian.Uint16(b), true
}

// replyInstance extracts the instance a Paxos reply answers.
func replyInstance(b []byte, v *paxos.MsgView) (uint64, bool) {
	if paxos.DecodeView(b, v) != nil {
		return 0, false
	}
	return v.Instance, true
}

var (
	crlf      = []byte("\r\n")
	storedCR  = []byte("STORED\r\n")
	valueWord = []byte("VALUE ")
	endCR     = []byte("\r\nEND\r\n")
)

// check judges reply as the answer to sl. It also advances the per-key
// acknowledged version on a good SET reply.
func (s *stream) check(reply []byte, sl *slot) failKind {
	switch sl.kind {
	case kindSet:
		_, body, err := memcache.DecodeFrame(reply)
		if err != nil {
			return failUndecoded
		}
		if !bytes.Equal(body, storedCR) {
			return failWrong
		}
		if sl.ver > s.lastAcked[sl.key] {
			s.lastAcked[sl.key] = sl.ver
		}
		return failNone
	case kindGet:
		return s.checkGet(reply, sl)
	case kindQuery, kindQueryNX:
		return checkDNS(reply, sl)
	case kindEcho:
		// The id (first two bytes) already picked the slot.
		var buf [32]byte
		if want := appendGet(buf[:0], 0, sl.key); len(reply) != len(want) || !bytes.Equal(reply[2:], want[2:]) {
			return failWrong
		}
		return failNone
	default:
		return s.checkVote(reply, sl)
	}
}

// checkGet accepts "VALUE <key> 0 <n>\r\n<n bytes>\r\nEND\r\n" whose bytes
// are exactly version v of the key, for some v between the version last
// acknowledged when the GET left and the version last sent by now.
func (s *stream) checkGet(reply []byte, sl *slot) failKind {
	_, body, err := memcache.DecodeFrame(reply)
	if err != nil || !bytes.HasPrefix(body, valueWord) {
		return failUndecoded
	}
	var want [64]byte
	head := appendKey(want[:0], sl.key)
	head = append(head, " 0 "...)
	body = body[len(valueWord):]
	if !bytes.HasPrefix(body, head) {
		return failWrong
	}
	body = body[len(head):]
	nl := bytes.Index(body, crlf)
	if nl < 0 {
		return failUndecoded
	}
	n, err := strconv.Atoi(string(body[:nl]))
	body = body[nl+2:]
	if err != nil || n < 16 || len(body) != n+len(endCR) || !bytes.Equal(body[n:], endCR) {
		return failUndecoded
	}
	val := body[:n]
	key, ok1 := parseHex32(val[:8])
	ver, ok2 := parseHex32(val[8:16])
	if !ok1 || !ok2 || uint64(key) != sl.key {
		return failWrong
	}
	if ver < sl.ver || ver > s.lastSent[sl.key] {
		return failWrong // staler than an acknowledged write, or from the future
	}
	var buf [1100]byte
	if !bytes.Equal(val, s.appendValue(buf[:0], sl.key, ver)) {
		return failWrong
	}
	return failNone
}

// checkDNS accepts an authoritative response that echoes the question as
// sent and carries the zone's address, or NXDOMAIN for an absent name.
func checkDNS(reply []byte, sl *slot) failKind {
	var q [64]byte
	want := appendQuery(q[:0], 0, sl.key, sl.kind == kindQuery, sl.aux)
	if len(reply) < len(want) {
		return failUndecoded
	}
	flags := binary.BigEndian.Uint16(reply[2:])
	if flags&0x8000 == 0 || binary.BigEndian.Uint16(reply[4:]) != 1 {
		return failUndecoded
	}
	if !bytes.Equal(reply[12:len(want)], want[12:]) {
		return failWrong
	}
	rcode, ancount := flags&0xF, binary.BigEndian.Uint16(reply[6:])
	rest := reply[len(want):]
	if sl.kind == kindQueryNX {
		if rcode != 3 || ancount != 0 || len(rest) != 0 {
			return failWrong
		}
		return failNone
	}
	// One compressed A record: pointer, type, class, TTL, rdlength 4, address.
	if rcode != 0 || ancount != 1 || len(rest) != 16 {
		return failWrong
	}
	addr := dnsAddr(sl.key)
	if binary.BigEndian.Uint16(rest[2:]) != 1 || binary.BigEndian.Uint16(rest[10:]) != 4 ||
		!bytes.Equal(rest[12:], addr[:]) {
		return failWrong
	}
	return failNone
}

// checkVote accepts a Phase2B for the slot's instance carrying the first
// value ever proposed for it — the only value an acceptor may vote for.
// If the first proposal was never acknowledged it may have been lost on
// the way, in which case a re-vote's own value legitimately became the
// first; only then is another value accepted.
func (s *stream) checkVote(reply []byte, sl *slot) failKind {
	var v paxos.MsgView
	if paxos.DecodeView(reply, &v) != nil {
		return failUndecoded
	}
	if v.Type != paxos.MsgPhase2B || v.Instance != sl.key {
		return failWrong
	}
	n := (sl.key - uint64(s.conn)) / uint64(s.conns) // the instance's fresh number
	var val [16]byte
	if bytes.Equal(v.Value, paxosValue(val[:0], sl.key, 0)) {
		if sl.kind == kindVote {
			s.acked[n%uint64(len(s.acked))] = n
		}
		return failNone
	}
	if sl.kind == kindRevote && s.acked[n%uint64(len(s.acked))] != n && len(v.Value) == len(val) {
		return failNone
	}
	return failWrong
}
