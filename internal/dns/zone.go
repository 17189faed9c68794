package dns

import "fmt"

// asciiLower lowercases ASCII A-Z only, allocating only when a change
// is needed. DNS case-insensitivity is defined over ASCII (RFC 4343) —
// using it for the zone's string index keeps that index exactly
// consistent with the wire cache's fold rules, where strings.ToLower's
// Unicode folding would make a non-ASCII name reachable by one spelling
// and not the other.
func asciiLower(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			b := []byte(s)
			for j := i; j < len(b); j++ {
				if b[j] >= 'A' && b[j] <= 'Z' {
					b[j] += 'a' - 'A'
				}
			}
			return string(b)
		}
	}
	return s
}

// Zone is an authoritative resolution table from names to IPv4 addresses
// (§3.3: "the design supports resolution queries from names to IPv4
// addresses"). Lookups are case-insensitive per RFC 1035. Alongside the
// records map the zone keeps the precompiled wire-answer cache (see
// wire.go and the package comment): Add compiles the record's full
// response datagram once, Remove drops it, so the serving path answers
// with one copy and a header patch instead of encoding per query.
type Zone struct {
	records map[string]ARecord
	wire    *AnswerTable
}

// ARecord is one address record.
type ARecord struct {
	Addr [4]byte
	TTL  uint32
}

// NewZone returns an empty zone.
func NewZone() *Zone {
	return &Zone{records: make(map[string]ARecord), wire: NewAnswerTable()}
}

// Len returns the number of records.
func (z *Zone) Len() int { return len(z.records) }

// Add installs or replaces the A record for name, compiling its wire
// answer. Names that cannot be wire-encoded (empty or oversized labels)
// stay out of the wire cache — no wire query can spell them either — but
// remain visible to the string API.
func (z *Zone) Add(name string, addr [4]byte, ttl uint32) {
	lower := asciiLower(name)
	rec := ARecord{Addr: addr, TTL: ttl}
	z.records[lower] = rec
	if a, err := compileAnswer(lower, rec); err == nil {
		z.wire.add(a)
	}
}

// LookupWire finds the precompiled answer for a wire-form question name,
// case-insensitively and without allocating — the serving path's lookup.
func (z *Zone) LookupWire(qname []byte) (*WireAnswer, bool) {
	return z.wire.Lookup(qname)
}

// WireAnswers snapshots the wire-answer cache: an independent index
// sharing the immutable images, for the NIC tier's zone sync.
func (z *Zone) WireAnswers() *AnswerTable { return z.wire.Clone() }

// Lookup resolves name.
func (z *Zone) Lookup(name string) (ARecord, bool) {
	r, ok := z.records[asciiLower(name)]
	return r, ok
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
