package memcache

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"
)

// viewParityCases doubles as the parity test's table and the fuzz
// target's seed corpus.
var viewParityCases = []string{
	"get key\r\n",
	"gets another-key\r\n",
	"get a b c\r\n",
	"set k 7 30 5\r\nhello\r\n",
	"set k 0 -1 0\r\n\r\n",
	"delete k\r\n",
	"get \r\n",
	"get missing-crlf",
	"set k x 0 5\r\nhello\r\n",
	"set k 0 0 99\r\nshort\r\n",
	"set k 0 0 5 extra\r\nhello\r\n",
	"set k 7 30 5 noreply\r\nhello\r\n",
	"set k 0 0 5 noreply extra\r\nhello\r\n",
	"delete k noreply\r\n",
	"delete k noreply extra\r\n",
	"delete k norep\r\n",
	"set k\t0 0 5\r\nhello\r\n", // any ASCII whitespace separates fields
	"get\ta\nb\r\n",
	"delete a b\r\n",
	"flush_all\r\n",
	"\r\n",
	// Where the two parsers used to part ways (found by the fuzz target):
	"set k 0 +1 5\r\nhello\r\n",                          // strconv takes a sign the view does not
	"set k 0 0 -0\r\n\r\n",                               // ... and Atoi a negative zero
	"set k 0000000000000000000007 0 0\r\n\r\n",           // ... and any number of leading zeros
	"get a\u0085b\r\n",                                   // bytes.Fields splits on Unicode space
	"get a " + strings.Repeat("k", MaxKeyLen+1) + "\r\n", // the view stopped at the first key
}

// checkViewParity holds the view parser to ParseRequest: the same inputs
// accepted, every field equal, and nothing the view returns reaching
// outside the input it was given.
func checkViewParity(t *testing.T, in []byte) {
	t.Helper()
	want, wantErr := ParseRequest(in)
	var v RequestView
	gotErr := ParseRequestView(in, &v)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%q: ParseRequest err=%v, view err=%v", in, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if v.Op != want.Op {
		t.Fatalf("%q: op %v != %v", in, v.Op, want.Op)
	}
	if string(v.Key) != want.Key {
		t.Fatalf("%q: key %q != %q", in, v.Key, want.Key)
	}
	if v.MultiKey != (len(want.Extra) > 0) {
		t.Fatalf("%q: MultiKey=%v, extra=%v", in, v.MultiKey, want.Extra)
	}
	if v.Noreply != want.Noreply {
		t.Fatalf("%q: Noreply=%v, want %v", in, v.Noreply, want.Noreply)
	}
	if v.Flags != want.Flags || v.Exptime != want.Exptime {
		t.Fatalf("%q: flags/exptime %d/%d != %d/%d", in, v.Flags, v.Exptime, want.Flags, want.Exptime)
	}
	if !bytes.Equal(v.Value, want.Value) {
		t.Fatalf("%q: value %q != %q", in, v.Value, want.Value)
	}
	for _, sub := range [][]byte{v.Key, v.Value} {
		if len(sub) == 0 {
			continue
		}
		off := uintptr(unsafe.Pointer(unsafe.SliceData(sub))) - uintptr(unsafe.Pointer(unsafe.SliceData(in)))
		if off >= uintptr(len(in)) || off+uintptr(len(sub)) > uintptr(len(in)) {
			t.Fatalf("%q: view field %q lies outside the input", in, sub)
		}
	}
}

// The view parser must accept exactly what ParseRequest accepts and agree
// with it field-for-field.
func TestParseRequestViewParity(t *testing.T) {
	for _, in := range viewParityCases {
		checkViewParity(t, []byte(in))
	}
}

// FuzzParseRequestView is the same contract over arbitrary datagrams,
// read both ways the handlers read them: raw ASCII, and as the body
// behind a memcached UDP frame header. Neither parser may panic.
func FuzzParseRequestView(f *testing.F) {
	for _, c := range viewParityCases {
		f.Add([]byte(c))
		f.Add(EncodeFrame(Frame{RequestID: 7, Total: 1}, []byte(c)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkViewParity(t, data)
		if _, body, err := DecodeFrame(data); err == nil {
			checkViewParity(t, body)
		}
	})
}

func TestParseRequestViewAliasesInput(t *testing.T) {
	in := []byte("set k 0 0 5\r\nhello\r\n")
	var v RequestView
	if err := ParseRequestView(in, &v); err != nil {
		t.Fatal(err)
	}
	in[len(in)-3] = 'O' // mutate the datagram: the view must see it
	if string(v.Value) != "hellO" {
		t.Fatalf("value does not alias input: %q", v.Value)
	}
}

func TestAppendResponseMatchesEncodeResponse(t *testing.T) {
	cases := []Response{
		{Status: StatusStored},
		{Status: StatusEnd},
		{Status: StatusError},
		{Status: StatusEnd, Hit: true, Key: "k", Flags: 9, Value: []byte("vvv")},
		{Status: StatusEnd, Hit: true, Items: []Item{
			{Key: "a", Flags: 1, Value: []byte("x")},
			{Key: "b", Flags: 2, Value: []byte("yy")},
		}},
	}
	for _, r := range cases {
		want := EncodeResponse(r)
		got := AppendResponse(nil, r)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendResponse = %q, want %q", got, want)
		}
	}
}

func TestAppendGetHitRoundTrips(t *testing.T) {
	out := AppendGetHit(nil, []byte("key-1"), 7, []byte("value-1"))
	resp, err := ParseResponse(out)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Hit || resp.Key != "key-1" || resp.Flags != 7 || string(resp.Value) != "value-1" {
		t.Fatalf("round trip: %+v", resp)
	}
}

func TestAppendFrameMatchesEncodeFrame(t *testing.T) {
	f := Frame{RequestID: 300, SeqNo: 2, Total: 5, Reserved: 1}
	body := []byte("payload")
	want := EncodeFrame(f, body)
	got := append(AppendFrame(nil, f), body...)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendFrame = %x, want %x", got, want)
	}
}

func TestParseRequestViewDoesNotAllocate(t *testing.T) {
	in := []byte("get key-123456\r\n")
	var v RequestView
	allocs := testing.AllocsPerRun(100, func() {
		if err := ParseRequestView(in, &v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ParseRequestView allocates %.1f per run, want 0", allocs)
	}
}
