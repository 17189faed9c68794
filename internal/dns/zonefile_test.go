package dns

import (
	"strings"
	"testing"
)

// A zone record written as an FQDN is answered under the name a query
// spells, and a record no query can spell is not counted.
func TestZoneFQDNRecordIsAnswered(t *testing.T) {
	z := NewZone()
	z.Add("host.example.com.", [4]byte{10, 0, 0, 1}, 60)
	if z.Len() != 0 {
		t.Fatalf("Add kept a name with an empty last label: Len = %d", z.Len())
	}
	if _, ok := z.Lookup("host.example.com."); ok {
		t.Fatal("Lookup answered a record LookupWire cannot")
	}

	z, err := ParseZone([]byte("host.example.com. 10.0.0.1 60\n. 127.0.0.1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if z.Len() != 2 {
		t.Fatalf("Len = %d, want 2", z.Len())
	}
	checkAnswer(t, "FQDN record", z.LookupWire, "Host.Example.COM", 1, ARecord{Addr: [4]byte{10, 0, 0, 1}, TTL: 60}, true)
	checkAnswer(t, "root record", z.LookupWire, "", 2, ARecord{Addr: [4]byte{127, 0, 0, 1}, TTL: 300}, true)
}

func TestParseZone(t *testing.T) {
	type rec struct {
		name string
		r    ARecord
	}
	a := func(name string, a, b, c, d byte, ttl uint32) rec {
		return rec{name, ARecord{Addr: [4]byte{a, b, c, d}, TTL: ttl}}
	}
	for _, tc := range []struct {
		name, file string
		want       []rec  // each must be answered, and Len must match
		err        string // a substring of the error, "" for none
	}{
		{name: "empty", file: ""},
		{name: "comments and blank lines",
			file: "# a zone\n\n   \n  # indented comment\nhost0.example.com 10.0.0.1 300\n#host1.example.com 10.0.0.2\n",
			want: []rec{a("host0.example.com", 10, 0, 0, 1, 300)}},
		{name: "CRLF and no final newline",
			file: "a.test 1.2.3.4 30\r\nb.test 5.6.7.8\r\nc.test 9.9.9.9 7",
			want: []rec{a("a.test", 1, 2, 3, 4, 30), a("b.test", 5, 6, 7, 8, 300), a("c.test", 9, 9, 9, 9, 7)}},
		{name: "tabs, missing TTL, extra fields",
			file: "\ta.test\t\t1.2.3.4\nb.test 5.6.7.8\t42 IN A\n",
			want: []rec{a("a.test", 1, 2, 3, 4, 300), a("b.test", 5, 6, 7, 8, 42)}},
		{name: "IPv4-mapped IPv6",
			file: "a.test ::ffff:10.1.2.3\nb.test ::FFFF:0a01:0204 9\n",
			want: []rec{a("a.test", 10, 1, 2, 3, 300), a("b.test", 10, 1, 2, 4, 9)}},
		{name: "duplicates in different case, last wins",
			file: "Host.Test 1.1.1.1 10\nhost.test. 2.2.2.2 20\nHOST.TEST 3.3.3.3 30\n",
			want: []rec{a("host.test", 3, 3, 3, 3, 30)}},
		{name: "largest TTL", file: "a.test 1.2.3.4 4294967295\n",
			want: []rec{a("a.test", 1, 2, 3, 4, 1<<32-1)}},
		{name: "missing address", file: "ok.test 1.1.1.1\nlonely.test\n", err: "line 2: want"},
		{name: "bad IPv4", file: "a.test 1.2.3.4\n\nb.test 1.2.3.256\n", err: `line 3: bad IPv4 "1.2.3.256"`},
		{name: "short IPv4", file: "a.test 1.2.3\n", err: `line 1: bad IPv4 "1.2.3"`},
		{name: "leading zero", file: "a.test 1.02.3.4\n", err: "line 1: bad IPv4"},
		{name: "IPv6", file: "a.test 2001:db8::1\n", err: "line 1: bad IPv4"},
		{name: "hostname address", file: "a.test localhost\n", err: "line 1: bad IPv4"},
		{name: "bad TTL", file: "a.test 1.2.3.4 -5\n", err: `line 1: bad TTL "-5"`},
		{name: "TTL past 32 bits", file: "# c\na.test 1.2.3.4 4294967296\n", err: "line 2: bad TTL"},
		{name: "empty label", file: "a..test 1.2.3.4\n", err: "line 1: name"},
		{name: "two trailing dots", file: "a.test.. 1.2.3.4\n", err: "line 1: name"},
		{name: "label over 63 bytes", file: strings.Repeat("x", 64) + ".test 1.2.3.4\n", err: "line 1: name"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			z, err := ParseZone([]byte(tc.file))
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("error %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if z.Len() != len(tc.want) {
				t.Fatalf("Len = %d, want %d", z.Len(), len(tc.want))
			}
			for i, w := range tc.want {
				checkAnswer(t, w.name, z.LookupWire, w.name, byte(i), w.r, true)
				if got, ok := z.Lookup(w.name); !ok || got != w.r {
					t.Fatalf("%s: Lookup %+v ok=%v, want %+v", w.name, got, ok, w.r)
				}
			}
		})
	}
}
