package dns

import (
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
