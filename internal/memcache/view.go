package memcache

import (
	"bytes"
	"strconv"
)

// This file is the allocation-light half of the codec: the dataplane's
// serving hot path parses requests into a view that aliases the datagram
// and encodes responses by appending into a caller-provided buffer, so a
// single-key GET costs zero heap allocations per request. The string-based
// Request/Response API remains the general (and simulator-facing) path.

// RequestView is a parsed request whose Key and Value alias the input
// datagram — valid only until the buffer is reused. Multi-key gets do not
// fit a fixed view: MultiKey is set and the caller falls back to
// ParseRequest.
type RequestView struct {
	Op       Op
	Key      []byte
	MultiKey bool
	Noreply  bool
	Flags    uint32
	Exptime  int64
	Value    []byte
}

// asciiSpace is the protocol's whitespace; ParseRequest splits its fields
// on the same set, so both parsers cut a line in the same places.
func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// nextField returns the first whitespace-separated token of b and the
// rest.
func nextField(b []byte) (tok, rest []byte) {
	for len(b) > 0 && asciiSpace(b[0]) {
		b = b[1:]
	}
	i := 0
	for i < len(b) && !asciiSpace(b[i]) {
		i++
	}
	return b[:i], b[i:]
}

// parseUintBytes is strconv.ParseUint for a byte slice without the string
// conversion (and its allocation).
func parseUintBytes(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (1<<64-1-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

func parseIntBytes(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && b[0] == '-' {
		neg = true
		b = b[1:]
	}
	v, ok := parseUintBytes(b)
	if !ok || v > 1<<63-1 {
		return 0, false
	}
	if neg {
		return -int64(v), true
	}
	return int64(v), true
}

// ParseRequestView parses one ASCII request from body into v without
// allocating. It accepts exactly what ParseRequest accepts; multi-key
// gets return nil error with v.MultiKey set and only the first key
// populated (callers needing every key use ParseRequest).
func ParseRequestView(body []byte, v *RequestView) error {
	*v = RequestView{}
	nl := bytes.Index(body, crlf)
	if nl < 0 {
		return ErrMalformed
	}
	line, rest := body[:nl], body[nl+len(crlf):]
	cmd, line := nextField(line)
	switch string(cmd) { // compiler-optimized, no allocation
	case "get", "gets":
		key, line := nextField(line)
		if len(key) == 0 {
			return ErrMalformed
		}
		if len(key) > MaxKeyLen {
			return ErrKeyTooLong
		}
		v.Op, v.Key = OpGet, key
		for more, line := nextField(line); len(more) > 0; more, line = nextField(line) {
			if len(more) > MaxKeyLen {
				return ErrKeyTooLong
			}
			v.MultiKey = true
		}
		return nil
	case "set":
		key, line := nextField(line)
		if len(key) == 0 {
			return ErrMalformed
		}
		if len(key) > MaxKeyLen {
			return ErrKeyTooLong
		}
		flagsB, line := nextField(line)
		flags, ok := parseUintBytes(flagsB)
		if !ok || flags > 1<<32-1 {
			return ErrMalformed
		}
		expB, line := nextField(line)
		exp, ok := parseIntBytes(expB)
		if !ok {
			return ErrMalformed
		}
		lenB, line := nextField(line)
		n, ok := parseUintBytes(lenB)
		if !ok || n > uint64(len(rest)) {
			return ErrMalformed
		}
		noreply, err := parseNoreply(line)
		if err != nil {
			return err
		}
		if !bytes.HasPrefix(rest[n:], crlf) {
			return ErrMalformed
		}
		v.Op, v.Key, v.Flags, v.Exptime, v.Value = OpSet, key, uint32(flags), exp, rest[:n]
		v.Noreply = noreply
		return nil
	case "delete":
		key, line := nextField(line)
		if len(key) == 0 {
			return ErrMalformed
		}
		if len(key) > MaxKeyLen {
			return ErrKeyTooLong
		}
		noreply, err := parseNoreply(line)
		if err != nil {
			return err
		}
		v.Op, v.Key, v.Noreply = OpDelete, key, noreply
		return nil
	}
	return ErrUnsupportedCommand
}

// parseNoreply consumes an optional trailing "noreply" token (mutations
// only, per the memcached protocol); anything else trailing is malformed.
func parseNoreply(line []byte) (bool, error) {
	tok, line := nextField(line)
	if len(tok) == 0 {
		return false, nil
	}
	if string(tok) != "noreply" {
		return false, ErrMalformed
	}
	if extra, _ := nextField(line); len(extra) > 0 {
		return false, ErrMalformed
	}
	return true, nil
}

// AppendStatus appends a one-line status response ("STORED", "END", ...).
func AppendStatus(dst []byte, status string) []byte {
	dst = append(dst, status...)
	return append(dst, crlf...)
}

// AppendValueHeader appends the "VALUE <key> <flags> <n>\r\n" line of a
// VALUE block, for callers that stream the n value bytes in themselves
// (the lock-free store copies the value word-at-a-time straight into the
// reply buffer).
func AppendValueHeader(dst, key []byte, flags uint32, n int) []byte {
	dst = append(dst, "VALUE "...)
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(flags), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(n), 10)
	return append(dst, crlf...)
}

// AppendValue appends one VALUE block (no END terminator).
func AppendValue(dst, key []byte, flags uint32, value []byte) []byte {
	dst = AppendValueHeader(dst, key, flags, len(value))
	dst = append(dst, value...)
	return append(dst, crlf...)
}

// AppendGetHit appends a complete single-key get response: the VALUE
// block followed by END.
func AppendGetHit(dst, key []byte, flags uint32, value []byte) []byte {
	dst = AppendValue(dst, key, flags, value)
	return AppendStatus(dst, StatusEnd)
}

// AppendResponse appends r's wire form to dst — EncodeResponse without
// the intermediate buffer.
func AppendResponse(dst []byte, r Response) []byte {
	if r.Hit {
		items := r.Items
		if len(items) == 0 {
			dst = AppendValue(dst, []byte(r.Key), r.Flags, r.Value)
		}
		for _, it := range items {
			dst = AppendValue(dst, []byte(it.Key), it.Flags, it.Value)
		}
		return AppendStatus(dst, StatusEnd)
	}
	return AppendStatus(dst, r.Status)
}
