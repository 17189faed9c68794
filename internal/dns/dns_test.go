package dns

import "testing"

func TestZoneBasics(t *testing.T) {
	z := NewZone()
	z.Add("Host.Example.COM", [4]byte{1, 2, 3, 4}, 60)
	if rec, ok := z.Lookup("host.example.com"); !ok || rec.Addr != [4]byte{1, 2, 3, 4} {
		t.Errorf("case-insensitive lookup failed: %+v, %v", rec, ok)
	}
	z.PopulateSequential(10)
	if z.Len() != 11 {
		t.Errorf("Len = %d, want the added record and 10 sequential ones", z.Len())
	}
}

func TestZoneResolve(t *testing.T) {
	z := NewZone()
	z.Add("a.b", [4]byte{9, 9, 9, 9}, 120)
	resp := z.Resolve(NewQuery(1, "a.b"))
	if !resp.Response || !resp.Authority || !resp.HasAnswer || resp.Addr != [4]byte{9, 9, 9, 9} {
		t.Errorf("resolve hit: %+v", resp)
	}
	resp = z.Resolve(NewQuery(2, "missing"))
	if resp.RCode != RCodeNXDomain || resp.HasAnswer {
		t.Errorf("resolve miss: %+v", resp)
	}
	q := NewQuery(3, "a.b")
	q.QType = 28 // AAAA unsupported
	if resp := z.Resolve(q); resp.RCode != RCodeNotImpl {
		t.Errorf("AAAA should be NOTIMPL: %+v", resp)
	}
}
