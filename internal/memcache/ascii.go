package memcache

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// Op is a memcached command type.
type Op int

// Supported operations (the subset LaKe accelerates plus management).
const (
	OpGet Op = iota
	OpSet
	OpDelete
)

// String returns the wire verb.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpSet:
		return "set"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Request is a parsed memcached ASCII request. Multi-key gets ("get k1
// k2 ...") set Key to the first key and Extra to the rest. Noreply is
// the protocol's fire-and-forget marker on mutations: the server applies
// the operation and sends nothing back.
type Request struct {
	Op      Op
	Key     string
	Extra   []string
	Noreply bool
	Flags   uint32
	Exptime int64
	Value   []byte
}

// AllKeys returns every requested key (gets only).
func (r Request) AllKeys() []string {
	return append([]string{r.Key}, r.Extra...)
}

// Parse errors.
var (
	ErrMalformed          = errors.New("memcache: malformed request")
	ErrUnsupportedCommand = errors.New("memcache: unsupported command")
	ErrKeyTooLong         = errors.New("memcache: key exceeds 250 bytes")
)

// MaxKeyLen is the memcached protocol key limit.
const MaxKeyLen = 250

var crlf = []byte("\r\n")

// ParseRequest parses one ASCII request from body (the datagram payload
// after the UDP frame header).
func ParseRequest(body []byte) (Request, error) {
	line, rest, found := bytes.Cut(body, crlf)
	if !found {
		return Request{}, ErrMalformed
	}
	// ASCII whitespace and plain decimals, as in ParseRequestView
	// (bytes.Fields also splits on Unicode space inside a key, strconv
	// takes signs): FuzzParseRequestView holds the two parsers together.
	fields := bytes.FieldsFunc(line, func(r rune) bool { return r < 0x80 && asciiSpace(byte(r)) })
	if len(fields) == 0 {
		return Request{}, ErrMalformed
	}
	switch string(fields[0]) {
	case "get", "gets":
		if len(fields) < 2 {
			return Request{}, ErrMalformed
		}
		req := Request{Op: OpGet}
		for i, f := range fields[1:] {
			key := string(f)
			if len(key) > MaxKeyLen {
				return Request{}, ErrKeyTooLong
			}
			if i == 0 {
				req.Key = key
			} else {
				req.Extra = append(req.Extra, key)
			}
		}
		return req, nil
	case "set":
		noreply := false
		if len(fields) == 6 && string(fields[5]) == "noreply" {
			noreply = true
		} else if len(fields) != 5 {
			return Request{}, ErrMalformed
		}
		key := string(fields[1])
		if len(key) > MaxKeyLen {
			return Request{}, ErrKeyTooLong
		}
		flags, ok := parseUintBytes(fields[2])
		if !ok || flags > 1<<32-1 {
			return Request{}, ErrMalformed
		}
		exp, ok := parseIntBytes(fields[3])
		if !ok {
			return Request{}, ErrMalformed
		}
		n, ok := parseUintBytes(fields[4])
		if !ok || n > uint64(len(rest)) {
			return Request{}, ErrMalformed
		}
		if !bytes.HasPrefix(rest[n:], crlf) {
			return Request{}, ErrMalformed
		}
		val := make([]byte, n)
		copy(val, rest[:n])
		return Request{Op: OpSet, Key: key, Noreply: noreply, Flags: uint32(flags), Exptime: exp, Value: val}, nil
	case "delete":
		noreply := false
		if len(fields) == 3 && string(fields[2]) == "noreply" {
			noreply = true
		} else if len(fields) != 2 {
			return Request{}, ErrMalformed
		}
		key := string(fields[1])
		if len(key) > MaxKeyLen {
			return Request{}, ErrKeyTooLong
		}
		return Request{Op: OpDelete, Key: key, Noreply: noreply}, nil
	}
	return Request{}, ErrUnsupportedCommand
}

// EncodeRequest renders a request in wire form.
func EncodeRequest(r Request) []byte {
	var b bytes.Buffer
	switch r.Op {
	case OpGet:
		b.WriteString("get ")
		b.WriteString(r.Key)
		for _, k := range r.Extra {
			b.WriteByte(' ')
			b.WriteString(k)
		}
		b.Write(crlf)
	case OpSet:
		fmt.Fprintf(&b, "set %s %d %d %d%s\r\n", r.Key, r.Flags, r.Exptime, len(r.Value), noreplySuffix(r.Noreply))
		b.Write(r.Value)
		b.Write(crlf)
	case OpDelete:
		fmt.Fprintf(&b, "delete %s%s\r\n", r.Key, noreplySuffix(r.Noreply))
	}
	return b.Bytes()
}

func noreplySuffix(noreply bool) string {
	if noreply {
		return " noreply"
	}
	return ""
}

// Item is one VALUE block in a get response.
type Item struct {
	Key   string
	Flags uint32
	Value []byte
}

// Response is a parsed memcached ASCII response.
type Response struct {
	// Status is the one-line status: "STORED", "DELETED", "NOT_FOUND",
	// "END" (for gets with or without a value), or "ERROR".
	Status string
	// Key/Flags/Value are the first returned item, for the common
	// single-key case.
	Key   string
	Flags uint32
	Value []byte
	// Items holds every returned VALUE block (multi-key gets).
	Items []Item
	// Hit reports whether a get returned at least one value.
	Hit bool
}

// Canonical status lines.
const (
	StatusStored   = "STORED"
	StatusDeleted  = "DELETED"
	StatusNotFound = "NOT_FOUND"
	StatusEnd      = "END"
	StatusError    = "ERROR"
)

// EncodeResponse renders a response in wire form. Get responses emit one
// VALUE block per item (Items if set, else the legacy Key/Flags/Value
// triple) followed by END.
func EncodeResponse(r Response) []byte {
	var b bytes.Buffer
	if r.Hit {
		items := r.Items
		if len(items) == 0 {
			items = []Item{{Key: r.Key, Flags: r.Flags, Value: r.Value}}
		}
		for _, it := range items {
			fmt.Fprintf(&b, "VALUE %s %d %d\r\n", it.Key, it.Flags, len(it.Value))
			b.Write(it.Value)
			b.Write(crlf)
		}
		b.WriteString(StatusEnd)
		b.Write(crlf)
		return b.Bytes()
	}
	b.WriteString(r.Status)
	b.Write(crlf)
	return b.Bytes()
}

// ParseResponse parses one ASCII response body, collecting every VALUE
// block of a get response.
func ParseResponse(body []byte) (Response, error) {
	var resp Response
	for {
		line, rest, found := bytes.Cut(body, crlf)
		if !found {
			return Response{}, ErrMalformed
		}
		fields := bytes.Fields(line)
		if len(fields) == 0 {
			return Response{}, ErrMalformed
		}
		switch string(fields[0]) {
		case "VALUE":
			if len(fields) != 4 {
				return Response{}, ErrMalformed
			}
			flags, err := strconv.ParseUint(string(fields[2]), 10, 32)
			if err != nil {
				return Response{}, ErrMalformed
			}
			n, err := strconv.Atoi(string(fields[3]))
			if err != nil || n < 0 || n > len(rest) {
				return Response{}, ErrMalformed
			}
			if !bytes.HasPrefix(rest[n:], crlf) {
				return Response{}, ErrMalformed
			}
			val := make([]byte, n)
			copy(val, rest[:n])
			resp.Items = append(resp.Items, Item{Key: string(fields[1]), Flags: uint32(flags), Value: val})
			body = rest[n+len(crlf):]
			continue
		case StatusStored, StatusDeleted, StatusNotFound, StatusEnd, StatusError:
			resp.Status = string(fields[0])
			if len(resp.Items) > 0 {
				resp.Hit = true
				resp.Key = resp.Items[0].Key
				resp.Flags = resp.Items[0].Flags
				resp.Value = resp.Items[0].Value
			}
			return resp, nil
		default:
			return Response{}, ErrMalformed
		}
	}
}
