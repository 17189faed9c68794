package dns

import "encoding/binary"

// This file is the precompiled wire-answer cache behind the zero-copy
// serving path: one immutable response datagram per A record, compiled at
// Zone.Add time, indexed by an ASCII-folded hash of the wire-form name so
// lookups are case-insensitive without strings.ToLower's allocation. See
// the package comment for the coherence contract.

// WireAnswer is the precompiled answer for one record: the full response
// datagram (ID 0, flags QR|AA, canonical lowercase question name,
// compressed A answer). Images are immutable after compilation — Zone.Add
// replaces, never mutates — so snapshots share them freely.
type WireAnswer struct {
	qname []byte // wire-form question name within image
	image []byte // the full prebuilt response datagram
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

// compileAnswer builds the wire image for a record. name must already be
// lowercase. Names that cannot be wire-encoded (empty labels, labels over
// 63 bytes) return an error — such names can never appear in a wire query
// either, so they are simply absent from the cache.
func compileAnswer(name string, r ARecord) (*WireAnswer, error) {
	img, err := AppendMessage(make([]byte, 0, 12+len(name)+2+4+16), Message{
		Response: true, Authority: true,
		Name: name, QType: TypeA, QClass: ClassIN,
		HasAnswer: true, TTL: r.TTL, Addr: r.Addr,
	})
	if err != nil {
		return nil, err
	}
	nameLen := 1
	if name != "" {
		nameLen = len(name) + 2
	}
	return &WireAnswer{qname: img[12 : 12+nameLen], image: img}, nil
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
// name. The zone owns one (kept coherent by Add); the NIC tier
// serves from an independent snapshot sharing the same immutable images.
// Like Zone, a table is safe for concurrent readers only while nobody
// writes.
type AnswerTable struct {
	buckets map[uint64][]*WireAnswer
	n       int
}

// NewAnswerTable returns an empty table.
func NewAnswerTable() *AnswerTable {
	return &AnswerTable{buckets: make(map[uint64][]*WireAnswer)}
}

// Len returns the number of answers in the table.
func (t *AnswerTable) Len() int { return t.n }

// Lookup finds the answer whose name fold-matches the wire-form qname.
// It allocates nothing.
func (t *AnswerTable) Lookup(qname []byte) (*WireAnswer, bool) {
	for _, a := range t.buckets[foldHash(qname)] {
		if foldEqual(a.qname, qname) {
			return a, true
		}
	}
	return nil, false
}

// add installs a, replacing any fold-equal entry.
func (t *AnswerTable) add(a *WireAnswer) {
	h := foldHash(a.qname)
	chain := t.buckets[h]
	for i, old := range chain {
		if foldEqual(old.qname, a.qname) {
			chain[i] = a
			return
		}
	}
	t.buckets[h] = append(chain, a)
	t.n++
}

// Clone returns an independent snapshot: its own index, sharing the
// immutable answer images — the NIC tier's zone sync.
func (t *AnswerTable) Clone() *AnswerTable {
	out := &AnswerTable{buckets: make(map[uint64][]*WireAnswer, len(t.buckets)), n: t.n}
	for h, chain := range t.buckets {
		out.buckets[h] = append([]*WireAnswer(nil), chain...)
	}
	return out
}
