package dns

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Record types and classes (only what Emu DNS supports, §3.3).
const (
	TypeA   = 1
	ClassIN = 1
)

// RCodes.
const (
	RCodeNoError  = 0
	RCodeNXDomain = 3
	RCodeNotImpl  = 4
)

// Header flag bits.
const (
	flagQR = 1 << 15 // response
	flagAA = 1 << 10 // authoritative answer
	flagRD = 1 << 8  // recursion desired
)

// Message is a parsed DNS message restricted to a single question and
// (optionally) a single A answer — the shape Emu DNS handles.
type Message struct {
	ID        uint16
	Response  bool
	Authority bool
	RecDes    bool
	RCode     int
	Name      string // question name, dot-separated, no trailing dot
	QType     uint16
	QClass    uint16
	// Answer (responses with RCodeNoError and HasAnswer).
	HasAnswer bool
	TTL       uint32
	Addr      [4]byte
}

// Codec errors.
var (
	ErrTruncatedMessage = errors.New("dns: truncated message")
	ErrBadName          = errors.New("dns: malformed name")
	ErrLabelTooLong     = errors.New("dns: label exceeds 63 bytes")
	ErrNameTooDeep      = errors.New("dns: name exceeds supported label depth")
)

// MaxLabels is the parse depth Emu DNS's fixed pipeline supports (§9.2
// discusses "queries that require parsing deeper than the maximum
// supported depth"). Software servers have no such limit.
const MaxLabels = 8

// appendName encodes a dot-separated name as DNS labels. The empty name
// is the root; any other name with an empty label (a trailing dot
// included) or a label over 63 bytes has no wire form.
func appendName[S string | []byte](b []byte, name S) ([]byte, error) {
	if len(name) == 0 {
		return append(b, 0), nil
	}
	for {
		l := 0
		for l < len(name) && name[l] != '.' {
			l++
		}
		switch {
		case l == 0:
			return nil, ErrBadName
		case l > 63:
			return nil, ErrLabelTooLong
		}
		b = append(b, byte(l))
		b = append(b, name[:l]...)
		if l == len(name) {
			return append(b, 0), nil
		}
		name = name[l+1:]
	}
}

// parseName decodes labels at off, enforcing depthLimit (0 = unlimited).
// Compression pointers are accepted for robustness even though queries in
// practice never need them.
func parseName(msg []byte, off int, depthLimit int) (string, int, error) {
	var labels []string
	jumped := false
	end := off
	for hops := 0; ; hops++ {
		if hops > 64 {
			return "", 0, ErrBadName
		}
		if off >= len(msg) {
			return "", 0, ErrTruncatedMessage
		}
		l := int(msg[off])
		switch {
		case l == 0:
			if !jumped {
				end = off + 1
			}
			if depthLimit > 0 && len(labels) > depthLimit {
				return "", 0, ErrNameTooDeep
			}
			return strings.Join(labels, "."), end, nil
		case l&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, ErrTruncatedMessage
			}
			ptr := int(binary.BigEndian.Uint16(msg[off:]) & 0x3FFF)
			if !jumped {
				end = off + 2
			}
			jumped = true
			off = ptr
		case l&0xC0 != 0:
			return "", 0, ErrBadName
		default:
			if off+1+l > len(msg) {
				return "", 0, ErrTruncatedMessage
			}
			labels = append(labels, string(msg[off+1:off+1+l]))
			off += 1 + l
		}
	}
}

// Encode serializes the message. Responses carrying an answer use a
// compression pointer to the question name, like real servers do.
func Encode(m Message) ([]byte, error) {
	return AppendMessage(make([]byte, 0, 12+len(m.Name)+2+4+16), m)
}

// AppendMessage is Encode into a caller-provided buffer: the serving path
// encodes responses into a reusable dataplane scratch buffer, avoiding a
// per-response allocation. The message must begin at the start of the
// datagram the caller transmits (compression pointers are
// message-relative), so handlers pass scratch[:0].
func AppendMessage(dst []byte, m Message) ([]byte, error) {
	var flags uint16
	if m.Response {
		flags |= flagQR
	}
	if m.Authority {
		flags |= flagAA
	}
	if m.RecDes {
		flags |= flagRD
	}
	flags |= uint16(m.RCode & 0xF)
	an := 0
	if m.HasAnswer {
		an = 1
	}
	b, err := appendName(appendHeader(dst, m.ID, flags, an), m.Name)
	if err != nil {
		return nil, err
	}
	b = binary.BigEndian.AppendUint16(b, m.QType)
	b = binary.BigEndian.AppendUint16(b, m.QClass)
	if m.HasAnswer {
		b = appendARecord(b, m.TTL, m.Addr)
	}
	return b, nil
}

// appendHeader appends a header for one question and an answers.
func appendHeader(b []byte, id, flags uint16, an int) []byte {
	b = binary.BigEndian.AppendUint16(b, id)
	b = binary.BigEndian.AppendUint16(b, flags)
	b = binary.BigEndian.AppendUint16(b, 1) // QDCOUNT
	b = binary.BigEndian.AppendUint16(b, uint16(an))
	b = binary.BigEndian.AppendUint16(b, 0)    // NSCOUNT
	return binary.BigEndian.AppendUint16(b, 0) // ARCOUNT
}

// appendARecord appends an A answer whose name is a compression pointer
// to the question name, like real servers send.
func appendARecord(b []byte, ttl uint32, addr [4]byte) []byte {
	b = append(b, 0xC0, 12)
	b = binary.BigEndian.AppendUint16(b, TypeA)
	b = binary.BigEndian.AppendUint16(b, ClassIN)
	b = binary.BigEndian.AppendUint32(b, ttl)
	b = binary.BigEndian.AppendUint16(b, 4)
	return append(b, addr[:]...)
}

// Decode parses a message with at most one question and one A answer.
// depthLimit bounds question-name label depth (0 = unlimited); hardware
// callers pass MaxLabels.
func Decode(msg []byte, depthLimit int) (Message, error) {
	if len(msg) < 12 {
		return Message{}, ErrTruncatedMessage
	}
	var m Message
	m.ID = binary.BigEndian.Uint16(msg[0:])
	flags := binary.BigEndian.Uint16(msg[2:])
	m.Response = flags&flagQR != 0
	m.Authority = flags&flagAA != 0
	m.RecDes = flags&flagRD != 0
	m.RCode = int(flags & 0xF)
	qd := binary.BigEndian.Uint16(msg[4:])
	an := binary.BigEndian.Uint16(msg[6:])
	if qd != 1 {
		return Message{}, fmt.Errorf("dns: unsupported question count %d", qd)
	}
	name, off, err := parseName(msg, 12, depthLimit)
	if err != nil {
		return Message{}, err
	}
	m.Name = name
	if off+4 > len(msg) {
		return Message{}, ErrTruncatedMessage
	}
	m.QType = binary.BigEndian.Uint16(msg[off:])
	m.QClass = binary.BigEndian.Uint16(msg[off+2:])
	off += 4
	if an >= 1 {
		_, off, err = parseName(msg, off, 0)
		if err != nil {
			return Message{}, err
		}
		if off+10 > len(msg) {
			return Message{}, ErrTruncatedMessage
		}
		rtype := binary.BigEndian.Uint16(msg[off:])
		m.TTL = binary.BigEndian.Uint32(msg[off+4:])
		rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
		off += 10
		if off+rdlen > len(msg) {
			return Message{}, ErrTruncatedMessage
		}
		if rtype == TypeA && rdlen == 4 {
			copy(m.Addr[:], msg[off:off+4])
			m.HasAnswer = true
		}
	}
	return m, nil
}

// NewQuery builds a standard A/IN query for name.
func NewQuery(id uint16, name string) Message {
	return Message{ID: id, Name: name, QType: TypeA, QClass: ClassIN}
}

// --- zero-copy question parsing (the serving hot path) ---------------------

// Codec errors specific to the view parser. A compressed question name is
// not malformed — callers fall back to the allocating Decode path (the
// host handler) or punt to the host (the NIC tier), matching the fixed
// hardware pipeline that only parses inline labels.
var (
	ErrCompressedName = errors.New("dns: compressed question name")
	errBadQDCount     = errors.New("dns: unsupported question count")
)

// QuestionView is a query parsed without copying: QName is the raw
// wire-form question name (length-prefixed labels, including the root
// terminator) aliasing the inbound datagram, valid only until the buffer
// is reused. It carries exactly what the answer path needs — the ID and
// flags to patch, the name to look up and echo, and the question-section
// end offset for negative responses.
type QuestionView struct {
	ID     uint16
	Flags  uint16
	QName  []byte
	QType  uint16
	QClass uint16
	// End is the offset just past the question section.
	End int
}

// Response reports the QR bit — set on answers, which servers ignore.
func (v *QuestionView) Response() bool { return v.Flags&flagQR != 0 }

// ParseQuestion parses the header and question section of msg into v
// without allocating. depthLimit bounds the label depth (0 = unlimited);
// hardware callers pass MaxLabels and treat ErrNameTooDeep as a punt to
// software. Compression pointers in the question name return
// ErrCompressedName so callers can fall back to Decode. The answer
// section, if any, is not parsed.
func ParseQuestion(msg []byte, depthLimit int, v *QuestionView) error {
	if len(msg) < 12 {
		return ErrTruncatedMessage
	}
	if binary.BigEndian.Uint16(msg[4:]) != 1 {
		return errBadQDCount
	}
	v.ID = binary.BigEndian.Uint16(msg[0:])
	v.Flags = binary.BigEndian.Uint16(msg[2:])
	off := 12
	labels := 0
	for {
		if off >= len(msg) {
			return ErrTruncatedMessage
		}
		l := int(msg[off])
		if l == 0 {
			off++
			break
		}
		switch {
		case l&0xC0 == 0xC0:
			return ErrCompressedName
		case l&0xC0 != 0:
			return ErrBadName
		}
		if off+1+l > len(msg) {
			return ErrTruncatedMessage
		}
		labels++
		off += 1 + l
	}
	if depthLimit > 0 && labels > depthLimit {
		return ErrNameTooDeep
	}
	if off+4 > len(msg) {
		return ErrTruncatedMessage
	}
	v.QName = msg[12:off]
	v.QType = binary.BigEndian.Uint16(msg[off:])
	v.QClass = binary.BigEndian.Uint16(msg[off+2:])
	v.End = off + 4
	return nil
}

// AppendNoAnswer appends a no-answer response (NXDOMAIN, NOTIMPL) for the
// query msg parsed into v: the response header followed by the question
// section echoed verbatim from the inbound datagram. It allocates nothing
// beyond dst's growth.
func AppendNoAnswer(dst, msg []byte, v *QuestionView, rcode int) []byte {
	dst = binary.BigEndian.AppendUint16(dst, v.ID)
	dst = binary.BigEndian.AppendUint16(dst, flagQR|flagAA|v.Flags&flagRD|uint16(rcode&0xF))
	dst = binary.BigEndian.AppendUint16(dst, 1) // QDCOUNT
	dst = binary.BigEndian.AppendUint16(dst, 0) // ANCOUNT
	dst = binary.BigEndian.AppendUint16(dst, 0) // NSCOUNT
	dst = binary.BigEndian.AppendUint16(dst, 0) // ARCOUNT
	return append(dst, msg[12:v.End]...)
}
