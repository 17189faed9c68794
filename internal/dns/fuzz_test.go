package dns

import (
	"fmt"
	"maps"
	"strings"
	"testing"
)

// wireDotted converts a view's wire-form name (validated by
// ParseQuestion) to the dotted string Decode would produce.
func wireDotted(qname []byte) string {
	var labels []string
	for off := 0; ; {
		l := int(qname[off])
		if l == 0 {
			break
		}
		labels = append(labels, string(qname[off+1:off+1+l]))
		off += 1 + l
	}
	return strings.Join(labels, ".")
}

// FuzzDecode guards the codec pair behind the serving path: the
// allocating Decode and the zero-copy ParseQuestion must never panic or
// hang on arbitrary input — compression-pointer loops and truncated
// labels included — and whenever both parse a datagram they must agree
// on the question.
func FuzzDecode(f *testing.F) {
	if q, err := Encode(NewQuery(7, "Host3.Example.COM")); err == nil {
		f.Add(q)
	}
	if deep, err := Encode(NewQuery(1, strings.Repeat("x.", MaxLabels+2)+"com")); err == nil {
		f.Add(deep)
	}
	if resp, err := Encode(Message{ID: 2, Response: true, Authority: true, Name: "a.b",
		QType: TypeA, QClass: ClassIN, HasAnswer: true, TTL: 5, Addr: [4]byte{1, 2, 3, 4}}); err == nil {
		f.Add(resp)
	}
	// A compression pointer that loops back to itself.
	loop := make([]byte, 18)
	loop[5] = 1
	loop[12], loop[13] = 0xC0, 12
	f.Add(loop)
	// A pointer chain bouncing between two offsets.
	chain := make([]byte, 20)
	chain[5] = 1
	chain[12], chain[13] = 0xC0, 14
	chain[14], chain[15] = 0xC0, 12
	f.Add(chain)
	// A label length byte pointing past the end of the datagram.
	trunc := append(make([]byte, 12), 63, 'a', 'b')
	trunc[5] = 1
	f.Add(trunc)
	// Truncated header and empty input.
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, derr := Decode(data, 0) // must not panic or hang
		var v QuestionView
		if err := ParseQuestion(data, 0, &v); err != nil {
			return
		}
		// The view parser accepts only complete, uncompressed questions;
		// Decode can still fail on a malformed answer section the view
		// parser ignores, but when it succeeds the questions must agree.
		if derr != nil {
			return
		}
		if m.ID != v.ID || m.QType != v.QType || m.QClass != v.QClass {
			t.Fatalf("view (%d %d %d) != decode (%d %d %d)",
				v.ID, v.QType, v.QClass, m.ID, m.QType, m.QClass)
		}
		if got := wireDotted(v.QName); got != m.Name {
			t.Fatalf("view name %q != decode name %q", got, m.Name)
		}
		if m.Response != v.Response() || m.RecDes != (v.Flags&flagRD != 0) {
			t.Fatalf("flag views diverged: %+v vs %+v", v, m)
		}
	})
}

// fuzzLabels are the labels FuzzZone builds names from: mixed case, the
// longest a wire label may be and one byte past it, and empty.
var fuzzLabels = []string{"a", "A", "host", "HoSt", "example", "com", "x1",
	strings.Repeat("l", 63), strings.Repeat("L", 64), ""}

// fuzzName decodes a name from the fuzz bytes: the root, or up to 11
// labels from fuzzLabels or raw bytes, with a trailing dot sometimes.
func fuzzName(next func() byte) string {
	b := next()
	if b%16 == 0 {
		return ""
	}
	labels := make([]string, 1+int(b>>4)%11)
	for i := range labels {
		if c := next(); c%8 == 7 {
			labels[i] = string([]byte{next(), next()})
		} else {
			labels[i] = fuzzLabels[int(c)%len(fuzzLabels)]
		}
	}
	name := strings.Join(labels, ".")
	if b%16 == 1 {
		name += "."
	}
	return name
}

// foldASCII lowercases A-Z only, as DNS matching does.
func foldASCII(s string) string {
	b := []byte(s)
	for i := range b {
		b[i] = foldByte(b[i])
	}
	return string(b)
}

// spellable reports whether a query can spell name: the root, or labels
// of 1 to 63 bytes.
func spellable(name string) bool {
	if name == "" {
		return true
	}
	for _, l := range strings.Split(name, ".") {
		if len(l) == 0 || len(l) > 63 {
			return false
		}
	}
	return true
}

// checkAnswer holds lookup's answer to a query for name to the reply the
// string codec encodes for want — in the query's spelling, ID and RD
// bit — or to no answer where present is false.
func checkAnswer(t *testing.T, where string, lookup func([]byte) (*WireAnswer, bool), name string, id byte, want ARecord, present bool) {
	t.Helper()
	q := Message{ID: uint16(id), RecDes: id&1 != 0, Name: name, QType: TypeA, QClass: ClassIN}
	query, err := Encode(q)
	if err != nil {
		t.Fatalf("%s: encode %q: %v", where, name, err)
	}
	var v QuestionView
	if err := ParseQuestion(query, 0, &v); err != nil {
		t.Fatal(err)
	}
	a, ok := lookup(v.QName)
	if ok != present {
		t.Fatalf("%s: LookupWire(%q) found=%v, want %v", where, name, ok, present)
	}
	if !ok {
		return
	}
	reply, err := Encode(Message{ID: q.ID, Response: true, Authority: true, RecDes: q.RecDes,
		Name: name, QType: TypeA, QClass: ClassIN, HasAnswer: true, TTL: want.TTL, Addr: want.Addr})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.AppendReply(nil, &v); string(got) != string(reply) {
		t.Fatalf("%s: reply to %q\n got %x\nwant %x", where, name, got, reply)
	}
}

// flipCase upper-cases the ASCII letters of s that the bits of mask
// select.
func flipCase(s string, mask byte) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'a' && b[i] <= 'z' && mask>>(i%8)&1 != 0 {
			b[i] -= 'a' - 'A'
		}
	}
	return string(b)
}

// FuzzZone drives Add, Lookup, LookupWire and WireAnswers, decoded from
// the fuzz bytes, against a map keyed by the folded name. A record a
// query cannot spell is never kept; every answer is the reply the string
// codec encodes, in the query's spelling; Len is the map's size; and a
// snapshot answers as the zone did when it was taken, whatever was added
// or replaced since.
func FuzzZone(f *testing.F) {
	f.Add([]byte{0, 0x21, 2, 3, 9, 9, 1, 0x21, 2, 3, 2, 0x21, 2, 3, 0xff, 3, 0, 0x21, 2, 3, 7, 7, 2, 0x21, 2, 3, 0})
	f.Add([]byte{0, 0x30, 7, 1, 0, 5, 1, 3, 0, 0x31, 6, 6, 4, 4})
	f.Add([]byte{3, 0, 0x10, 0, 1, 1, 1, 0xa0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 8, 8, 3, 2, 0xa0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0x55})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		type snapshot struct {
			table *AnswerTable
			model map[string]ARecord
		}
		z, model := NewZone(), map[string]ARecord{}
		var snaps []snapshot
		var names []string
		check := func(where string, lookup func([]byte) (*WireAnswer, bool), model map[string]ARecord, name string, mask byte) {
			t.Helper()
			if spellable(name) {
				want, present := model[foldASCII(name)]
				checkAnswer(t, where, lookup, flipCase(name, mask), mask, want, present)
			}
		}
		for op := 0; len(data) > 0 && op < 512; op++ {
			switch next() % 4 {
			case 0:
				name := fuzzName(next)
				r := ARecord{Addr: [4]byte{next(), 0, 0, next()}, TTL: uint32(next()) << 8}
				z.Add(name, r.Addr, r.TTL)
				if spellable(name) {
					model[foldASCII(name)] = r
				}
				names = append(names, name)
			case 1:
				name := fuzzName(next)
				mask := next()
				want, present := model[foldASCII(name)]
				present = present && spellable(name)
				if got, ok := z.Lookup(flipCase(name, mask)); ok != present || got != want && ok {
					t.Fatalf("Lookup(%q) = %+v, %v; model %+v, %v", flipCase(name, mask), got, ok, want, present)
				}
			case 2:
				check("zone", z.LookupWire, model, fuzzName(next), next())
			case 3:
				snaps = append(snaps, snapshot{z.WireAnswers(), maps.Clone(model)})
			}
			if z.Len() != len(model) {
				t.Fatalf("Len = %d, model holds %d", z.Len(), len(model))
			}
		}
		for i, s := range snaps {
			if s.table.Len() != len(s.model) {
				t.Fatalf("snapshot %d: Len = %d, model held %d", i, s.table.Len(), len(s.model))
			}
			for k, name := range names {
				check(fmt.Sprintf("snapshot %d", i), s.table.Lookup, s.model, name, byte(k))
			}
		}
	})
}
