package dns

import (
	"encoding/binary"
	"testing"

	"incod/internal/dataplane"
)

func encodeQuery(t *testing.T, id uint16, name string) []byte {
	t.Helper()
	b, err := Encode(NewQuery(id, name))
	if err != nil {
		t.Fatalf("encode %q: %v", name, err)
	}
	return b
}

// compressedQuery builds a query whose question name is a compression
// pointer to offset 6 (the zero NSCOUNT bytes, i.e. the root name) — the
// shape that must take the Decode fallback path.
func compressedQuery(id uint16) []byte {
	b := make([]byte, 18)
	binary.BigEndian.PutUint16(b[0:], id)
	b[5] = 1 // QDCOUNT
	b[12], b[13] = 0xC0, 6
	binary.BigEndian.PutUint16(b[14:], TypeA)
	binary.BigEndian.PutUint16(b[16:], ClassIN)
	return b
}

func testZone() *Zone {
	z := NewZone()
	z.PopulateSequential(32)
	z.Add("", [4]byte{127, 0, 0, 1}, 60) // root record for the compressed-query fallback
	return z
}

// TestHandlerWireAnswersMatchResolve pins the wire cache against the
// string codec: for hits, NXDOMAIN and NOTIMPL alike, the handler's
// reply must be byte-identical to encoding Zone.Resolve's answer —
// including echoing the client's case and RD bit.
func TestHandlerWireAnswersMatchResolve(t *testing.T) {
	zone := testZone()
	h := NewHandler(zone)
	scratch := make([]byte, 0, 4096)
	queries := []Message{
		NewQuery(1, "host5.example.com"),
		NewQuery(2, "Host5.Example.COM"),
		NewQuery(3, "absent.example.com"),
		NewQuery(4, "ABSENT.example.com"),
	}
	mx := NewQuery(5, "host5.example.com")
	mx.QType = 15
	queries = append(queries, mx)
	rd := NewQuery(6, "HOST5.example.com")
	rd.RecDes = true
	queries = append(queries, rd)

	for _, q := range queries {
		wire, err := Encode(q)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := h.HandleDatagram(wire, &scratch)
		if !ok {
			t.Fatalf("query %+v: no reply", q)
		}
		want, err := Encode(zone.Resolve(q))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("query %+v:\n got %q\nwant %q", q, got, want)
		}
	}
}

// TestZoneWireCacheCoherence pins the Add contract: Add replaces the
// precompiled image, and a snapshot keeps the images it was taken with.
func TestZoneWireCacheCoherence(t *testing.T) {
	z := NewZone()
	z.Add("x.example.com", [4]byte{1, 1, 1, 1}, 100)
	q := encodeQuery(t, 7, "x.example.com")
	var v QuestionView
	if err := ParseQuestion(q, 0, &v); err != nil {
		t.Fatal(err)
	}
	answer := func(lookup func([]byte) (*WireAnswer, bool)) (Message, bool) {
		t.Helper()
		a, ok := lookup(v.QName)
		if !ok {
			return Message{}, false
		}
		m, err := Decode(a.AppendReply(nil, &v), 0)
		if err != nil {
			t.Fatal(err)
		}
		return m, true
	}
	if m, ok := answer(z.LookupWire); !ok || m.Addr != [4]byte{1, 1, 1, 1} {
		t.Fatalf("wire answer after Add: %+v ok=%v", m, ok)
	}
	// Replacement recompiles; a snapshot taken before keeps the old image.
	snap := z.WireAnswers()
	z.Add("X.EXAMPLE.COM", [4]byte{2, 2, 2, 2}, 200)
	if z.Len() != 1 {
		t.Fatalf("case-insensitive replace should keep one record, have %d", z.Len())
	}
	if m, ok := answer(z.LookupWire); !ok || m.Addr != [4]byte{2, 2, 2, 2} || m.TTL != 200 {
		t.Fatalf("wire answer after replace: %+v ok=%v", m, ok)
	}
	if m, ok := answer(snap.Lookup); !ok || m.Addr != [4]byte{1, 1, 1, 1} || m.TTL != 100 {
		t.Fatalf("snapshot answer after the zone-side replace: %+v ok=%v", m, ok)
	}
}

// TestQuestionViewParse pins the view parser against the codec errors.
func TestQuestionViewParse(t *testing.T) {
	var v QuestionView
	q := encodeQuery(t, 9, "a.Bc.de")
	if err := ParseQuestion(q, 0, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID != 9 || v.QType != TypeA || v.QClass != ClassIN || v.Response() {
		t.Fatalf("view: %+v", v)
	}
	if string(v.QName) != "\x01a\x02Bc\x02de\x00" {
		t.Fatalf("qname view %q", v.QName)
	}
	if v.End != len(q) {
		t.Fatalf("End = %d, want %d", v.End, len(q))
	}
	if err := ParseQuestion(compressedQuery(1), 0, &v); err != ErrCompressedName {
		t.Fatalf("compressed err = %v", err)
	}
	deep := encodeQuery(t, 1, "a.b.c.d.e.f.g.h.i.j")
	if err := ParseQuestion(deep, MaxLabels, &v); err != ErrNameTooDeep {
		t.Fatalf("deep err = %v", err)
	}
	if err := ParseQuestion(deep, 0, &v); err != nil {
		t.Fatalf("unlimited deep err = %v", err)
	}
	if err := ParseQuestion(q[:len(q)-2], 0, &v); err != ErrTruncatedMessage {
		t.Fatalf("truncated err = %v", err)
	}
	trunc := append(make([]byte, 12), 40, 'a')
	trunc[5] = 1
	if err := ParseQuestion(trunc, 0, &v); err != ErrTruncatedMessage {
		t.Fatalf("truncated label err = %v", err)
	}
}

// TestDNSAnswerHitZeroAlloc is the acceptance bar for the tentpole: the
// answer-hit path — including a mixed-case name that would have paid
// strings.ToLower before — does zero heap allocations, and so do the
// NXDOMAIN and NOTIMPL paths.
func TestDNSAnswerHitZeroAlloc(t *testing.T) {
	h := NewHandler(testZone())
	scratch := make([]byte, 0, 4096)
	mx := NewQuery(3, "host2.example.com")
	mx.QType = 15
	mxq, err := Encode(mx)
	if err != nil {
		t.Fatal(err)
	}
	for name, dg := range map[string][]byte{
		"hit":         encodeQuery(t, 1, "HOST3.Example.COM"),
		"nxdomain":    encodeQuery(t, 2, "MISSING.example.com"),
		"notimpl":     mxq,
		"batched-hit": nil, // handled below
	} {
		if dg == nil {
			continue
		}
		ok := true
		allocs := testing.AllocsPerRun(2000, func() {
			out, served := h.HandleDatagram(dg, &scratch)
			ok = ok && served && len(out) > 0
		})
		if !ok {
			t.Fatalf("%s: no reply", name)
		}
		if allocs != 0 {
			t.Fatalf("%s path allocates %.1f times per op, want 0", name, allocs)
		}
	}

	// The batch form must be zero-alloc end to end as well.
	const n = 32
	items := make([]*dataplane.BatchItem, n)
	queries := make([][]byte, n)
	for i := range items {
		queries[i] = encodeQuery(t, uint16(i), "Host"+string(rune('0'+i%10))+".Example.Com")
		s := make([]byte, 0, 4096)
		items[i] = &dataplane.BatchItem{Scratch: &s}
	}
	allocs := testing.AllocsPerRun(500, func() {
		for i := range items {
			items[i].In = queries[i]
			items[i].Out = nil
			items[i].Served = false
		}
		h.HandleBatch(items)
	})
	if allocs != 0 {
		t.Fatalf("HandleBatch allocates %.1f times per batch, want 0", allocs)
	}
	if len(items[0].Out) == 0 {
		t.Fatal("batched query got no reply")
	}
}
