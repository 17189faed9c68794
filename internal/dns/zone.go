package dns

import "fmt"

// Zone is an authoritative resolution table from names to IPv4 addresses
// (§3.3: "the design supports resolution queries from names to IPv4
// addresses"). Lookups are case-insensitive per RFC 1035. The zone is
// its precompiled wire answers and nothing else (see wire.go and the
// package comment): Add compiles the record's full response datagram
// once into the zone's arena and indexes it, so the serving path answers
// with one copy and a header patch instead of encoding per query, and
// the string API reads the record back from the same image.
type Zone struct {
	wire AnswerTable
	// arena is the current chunk of the append-only arena the images are
	// carved from: a pointer-free []byte, so a record owns no heap object
	// of its own. Earlier chunks live on in the images cut from them.
	arena []byte
}

// ARecord is one address record.
type ARecord struct {
	Addr [4]byte
	TTL  uint32
}

// A new arena chunk is twice the last one, from 4 KiB up to 1 MiB, or one
// image if that is larger; ParseZone sizes the first one for the whole
// file.
const (
	minChunk = 4 << 10
	maxChunk = 1 << 20
)

// NewZone returns an empty zone.
func NewZone() *Zone { return newZone(0, 0) }

// newZone returns an empty zone with room for records answers and arena
// bytes of images.
func newZone(records, arena int) *Zone {
	return &Zone{wire: newAnswerTable(records), arena: make([]byte, 0, arena)}
}

// Len returns the number of records.
func (z *Zone) Len() int { return z.wire.Len() }

// Add installs or replaces the A record for name, compiling its wire
// answer. A name with no wire form — an empty label, a trailing dot
// included, or a label over 63 bytes — is not kept: no query can spell
// it, so LookupWire could never answer it. ParseZone strips one trailing
// root dot from a zone file's names and rejects the rest.
func (z *Zone) Add(name string, addr [4]byte, ttl uint32) {
	addRecord(z, name, ARecord{Addr: addr, TTL: ttl})
}

// addRecord is Add for a name as a string or as bytes of a zone file. It
// reports whether the name had a wire form.
func addRecord[S string | []byte](z *Zone, name S, r ARecord) bool {
	need := imageLen(len(name) + 2)
	if cap(z.arena)-len(z.arena) < need {
		z.arena = make([]byte, 0, max(min(max(2*cap(z.arena), minChunk), maxChunk), need))
	}
	start := len(z.arena)
	img, err := appendImage(z.arena, name, r)
	if err != nil {
		return false
	}
	z.arena = img
	z.wire.put(WireAnswer{image: img[start:len(img):len(img)]})
	return true
}

// LookupWire finds the precompiled answer for a wire-form question name,
// case-insensitively and without allocating — the serving path's lookup.
func (z *Zone) LookupWire(qname []byte) (*WireAnswer, bool) {
	return z.wire.Lookup(qname)
}

// WireAnswers snapshots the wire answers for the NIC tier's zone sync:
// an independent index over the answers the zone holds now, sharing
// their immutable images.
func (z *Zone) WireAnswers() *AnswerTable { return z.wire.clone() }

// Lookup resolves name: it encodes the name and probes the wire index.
func (z *Zone) Lookup(name string) (ARecord, bool) {
	var buf [256]byte
	qname, err := appendName(buf[:0], name)
	if err != nil {
		return ARecord{}, false
	}
	a, ok := z.wire.Lookup(qname)
	if !ok {
		return ARecord{}, false
	}
	return a.record(), true
}

// PopulateSequential fills the zone with n records named
// "hostN.example.com" mapping to 10.x.y.z, for load generation.
func (z *Zone) PopulateSequential(n int) {
	for i := 0; i < n; i++ {
		z.Add(SequentialName(i), [4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}, 300)
	}
}

// SequentialName returns the i'th generated zone name.
func SequentialName(i int) string { return fmt.Sprintf("host%d.example.com", i) }

// Resolve answers query q against the zone: an authoritative A answer on
// success, NXDOMAIN for unknown names ("Emu DNS informs the client that it
// cannot resolve the name", §3.3), NOTIMPL for non-A/IN questions.
func (z *Zone) Resolve(q Message) Message {
	resp := Message{
		ID:        q.ID,
		Response:  true,
		Authority: true,
		RecDes:    q.RecDes,
		Name:      q.Name,
		QType:     q.QType,
		QClass:    q.QClass,
	}
	if q.QType != TypeA || q.QClass != ClassIN {
		resp.RCode = RCodeNotImpl
		return resp
	}
	rec, ok := z.Lookup(q.Name)
	if !ok {
		resp.RCode = RCodeNXDomain
		return resp
	}
	resp.HasAnswer = true
	resp.Addr = rec.Addr
	resp.TTL = rec.TTL
	return resp
}
