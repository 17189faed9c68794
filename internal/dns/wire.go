package dns

import "encoding/binary"

// This file is the precompiled wire-answer index behind the zero-copy
// serving path: one immutable response datagram per A record, compiled at
// Zone.Add time into the zone's arena, indexed by an ASCII-folded hash of
// the wire-form name so lookups are case-insensitive without
// strings.ToLower's allocation. See the package comment for the
// coherence contract.

// WireAnswer is the precompiled answer for one record: the full response
// datagram (ID 0, flags QR|AA, canonical lowercase question name,
// compressed A answer), a slice of the zone's arena. Images are immutable
// after compilation — Zone.Add replaces, never mutates — so snapshots
// share them freely.
type WireAnswer struct {
	image []byte
}

// answerTail is what an image holds after its question name: QTYPE and
// QCLASS, then the answer record (name pointer, type, class, TTL,
// RDLENGTH, address). The record's TTL and address are its last 10 bytes.
const answerTail = 4 + 16

// imageLen is the size of the image for a name whose wire form is
// wireLen bytes.
func imageLen(wireLen int) int { return 12 + wireLen + answerTail }

// qname is the image's wire-form question name.
func (a *WireAnswer) qname() []byte { return a.image[12 : len(a.image)-answerTail] }

// record reads the address and TTL back from the image.
func (a *WireAnswer) record() ARecord {
	tail := a.image[len(a.image)-10:]
	return ARecord{TTL: binary.BigEndian.Uint32(tail), Addr: [4]byte(tail[6:])}
}

// AppendReply appends the complete answer for the query parsed into v:
// one copy of the precompiled image, then patch the ID and flags (QR|AA
// plus the query's RD bit) and echo the client's spelling of the name
// over the question section. v must have fold-matched this answer, so
// the names have identical wire length. Allocates nothing beyond dst's
// growth.
func (a *WireAnswer) AppendReply(dst []byte, v *QuestionView) []byte {
	n := len(dst)
	dst = append(dst, a.image...)
	b := dst[n:]
	binary.BigEndian.PutUint16(b[0:], v.ID)
	binary.BigEndian.PutUint16(b[2:], flagQR|flagAA|v.Flags&flagRD)
	copy(b[12:], v.QName)
	return dst
}

// appendImage appends the wire image of name's A record: the datagram
// AppendMessage encodes for an authoritative answer with ID 0, its
// question name lowercased. Names with no wire form (see appendName)
// return an error: no wire query can spell them.
func appendImage[S string | []byte](b []byte, name S, r ARecord) ([]byte, error) {
	start := len(b) + 12
	b, err := appendName(appendHeader(b, 0, flagQR|flagAA, 1), name)
	if err != nil {
		return nil, err
	}
	for i := start; i < len(b); i++ {
		b[i] = foldByte(b[i])
	}
	b = append(b, 0, TypeA, 0, ClassIN)
	return appendARecord(b, r.TTL, r.Addr), nil
}

// foldByte lowercases ASCII A-Z. Label length bytes are at most 63, below
// 'A', so folding the whole wire name never corrupts them.
func foldByte(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// foldHash is FNV-1a over the ASCII-folded bytes of a wire-form name.
func foldHash(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h = (h ^ uint64(foldByte(c))) * prime
	}
	return h
}

// foldEqual reports whether two wire-form names match case-insensitively.
func foldEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if foldByte(a[i]) != foldByte(b[i]) {
			return false
		}
	}
	return true
}

// AnswerTable indexes WireAnswers by the folded hash of their wire-form
// name: an open-addressed array of positions into a flat answer array,
// at most half full, probed linearly. The zone owns one (kept coherent
// by Add); the NIC tier serves from an independent snapshot sharing the
// same immutable images. Like Zone, a table is safe for concurrent
// readers only while nobody writes.
type AnswerTable struct {
	slots   []uint32     // position in answers + 1, 0 = empty; a power of two long
	answers []WireAnswer // append-only: a replaced answer stays, unreachable
	n       int          // answers reachable from slots
}

// newAnswerTable returns an empty table sized for records answers.
func newAnswerTable(records int) AnswerTable {
	size := 8
	for size < 2*records {
		size <<= 1
	}
	return AnswerTable{slots: make([]uint32, size), answers: make([]WireAnswer, 0, records)}
}

// Len returns the number of answers in the table.
func (t *AnswerTable) Len() int { return t.n }

// find returns the slot that holds the answer fold-equal to qname, or
// the empty slot where it belongs. FNV-1a's low bits mix only the low
// bits of each byte, so the high half is folded in before masking.
func (t *AnswerTable) find(qname []byte, h uint64) int {
	mask := len(t.slots) - 1
	for i := int(h^h>>32) & mask; ; i = (i + 1) & mask {
		if s := t.slots[i]; s == 0 || foldEqual(t.answers[s-1].qname(), qname) {
			return i
		}
	}
}

// Lookup finds the answer whose name fold-matches the wire-form qname.
// It allocates nothing.
func (t *AnswerTable) Lookup(qname []byte) (*WireAnswer, bool) {
	s := t.slots[t.find(qname, foldHash(qname))]
	if s == 0 {
		return nil, false
	}
	return &t.answers[s-1], true
}

// put installs a, replacing any fold-equal entry.
func (t *AnswerTable) put(a WireAnswer) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	q := a.qname()
	i := t.find(q, foldHash(q))
	if t.slots[i] == 0 {
		t.n++
	}
	t.answers = append(t.answers, a)
	t.slots[i] = uint32(len(t.answers))
}

// grow doubles the index and rehashes the reachable answers into it.
func (t *AnswerTable) grow() {
	old := t.slots
	t.slots = make([]uint32, 2*len(old))
	for _, s := range old {
		if s != 0 {
			q := t.answers[s-1].qname()
			t.slots[t.find(q, foldHash(q))] = s
		}
	}
}

// clone returns an independent snapshot — the NIC tier's zone sync: its
// own copy of the index, and the answer array up to its current length.
// The array is shared: the zone only appends past that length, and
// nothing rewrites an answer or its image.
func (t *AnswerTable) clone() *AnswerTable {
	return &AnswerTable{
		slots:   append([]uint32(nil), t.slots...),
		answers: t.answers[:len(t.answers):len(t.answers)],
		n:       t.n,
	}
}
