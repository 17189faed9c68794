package dns

import (
	"bytes"
	"fmt"
	"net/netip"
)

// ParseZone builds a zone from the bytes of a zone file: one
//
//	name ipv4 [ttl]
//
// record a line, fields split by ASCII white space (so CRLF line ends and
// tabs are fine), fields past the third ignored, the TTL 300 where it is
// missing. Blank lines and lines whose first field starts with '#' are
// skipped. One trailing root dot is stripped from a name, so
// "host.example.com." and "." are accepted as written in real zone
// files; a name that still has no wire form is an error, as is an
// address that is not IPv4 (an IPv4-mapped IPv6 address is its IPv4
// address) or a TTL that is not a 32-bit decimal. Errors name the line.
// A later record for a name replaces an earlier one, in any case.
//
// The zone is built in one pass: the index, the answer array and the
// arena are sized from the line count and the file's length up front, and
// a line is parsed in place, so a record allocates nothing of its own.
func ParseZone(data []byte) (*Zone, error) {
	lines := bytes.Count(data, []byte{'\n'}) + 1
	// A record's image is its wire name and answerTail after a 12-byte
	// header; its line holds the name and at least 8 bytes more (a
	// separator and a 7-byte address), so line length + 26 bounds it.
	z := newZone(lines, len(data)+lines*(imageLen(2)-8))
	for no := 1; len(data) > 0; no++ {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		var f [3][]byte
		n := splitFields(line, &f)
		if n == 0 || f[0][0] == '#' {
			continue
		}
		if n < 2 {
			return nil, fmt.Errorf("line %d: want 'name ipv4 [ttl]'", no)
		}
		addr, ok := parseIPv4(f[1])
		if !ok {
			return nil, fmt.Errorf("line %d: bad IPv4 %q", no, f[1])
		}
		ttl := uint32(300)
		if n > 2 {
			if ttl, ok = parseTTL(f[2]); !ok {
				return nil, fmt.Errorf("line %d: bad TTL %q", no, f[2])
			}
		}
		name := f[0]
		if name[len(name)-1] == '.' {
			name = name[:len(name)-1]
		}
		if !addRecord(z, name, ARecord{Addr: addr, TTL: ttl}) {
			return nil, fmt.Errorf("line %d: name %q has no wire form", no, f[0])
		}
	}
	return z, nil
}

// isSpace reports the ASCII white space that separates zone-file fields:
// a space, or one of \t \n \v \f \r (9 to 13).
func isSpace(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

// splitFields cuts line into its first len(f) fields, in place, and
// returns how many fields the line has, up to len(f).
func splitFields(line []byte, f *[3][]byte) int {
	n := 0
	for i := 0; i < len(line) && n < len(f); {
		for i < len(line) && isSpace(line[i]) {
			i++
		}
		j := i
		for j < len(line) && !isSpace(line[j]) {
			j++
		}
		if j > i {
			f[n] = line[i:j]
			n++
		}
		i = j
	}
	return n
}

// parseIPv4 parses a dotted-quad IPv4 address without allocating, and an
// IPv4-mapped IPv6 address (::ffff:a.b.c.d) through netip. Octets with a
// leading zero are refused, as net.ParseIP and netip do.
func parseIPv4(b []byte) ([4]byte, bool) {
	var ip [4]byte
	rest := b
	for k := range ip {
		if k > 0 {
			if len(rest) == 0 || rest[0] != '.' {
				return v4Mapped(b)
			}
			rest = rest[1:]
		}
		n, v := 0, 0
		for n < len(rest) && n < 4 && rest[n] >= '0' && rest[n] <= '9' {
			v = v*10 + int(rest[n]-'0')
			n++
		}
		if n == 0 || n > 3 || v > 255 || n > 1 && rest[0] == '0' {
			return v4Mapped(b)
		}
		ip[k] = byte(v)
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return v4Mapped(b)
	}
	return ip, true
}

// v4Mapped is parseIPv4's slow path for IPv6 spellings of an IPv4
// address.
func v4Mapped(b []byte) ([4]byte, bool) {
	if bytes.IndexByte(b, ':') < 0 {
		return [4]byte{}, false
	}
	a, err := netip.ParseAddr(string(b))
	if err != nil || !a.Is4In6() || a.Zone() != "" {
		return [4]byte{}, false
	}
	return a.Unmap().As4(), true
}

// parseTTL parses a decimal TTL of at most 32 bits without allocating.
func parseTTL(b []byte) (uint32, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if v = v*10 + uint64(c-'0'); v > 1<<32-1 {
			return 0, false
		}
	}
	return uint32(v), true
}
