package trafficgen

import (
	"encoding/binary"

	"incod/internal/dns"
	"incod/internal/memcache"
	"incod/internal/paxos"
)

// Verdict is what a reply said; a client counts replies under it.
type Verdict string

const (
	// Bad is a datagram the app cannot read as one of its replies.
	Bad Verdict = "bad"
	// Answered is a reply with nothing more to tell: a miss, a STORED, a
	// ballot refusal, an rcode other than NXDOMAIN.
	Answered Verdict = "answered"
	Hit      Verdict = "hit"
	Resolved Verdict = "resolved"
	NXDomain Verdict = "nxdomain"
	Voted    Verdict = "voted"
	Decided  Verdict = "decided"
)

// App is one traffic kind: the only client-side code that knows how a
// request is encoded and which request a reply answers. KVS, DNS and
// vote traffic correlate by a 16-bit wire id, so request n's key wraps.
type App interface {
	// Request encodes request n into a fresh datagram and returns it with
	// the key its reply will carry. arg, when not nil, is what to ask for
	// (the key, the name, the value to propose) in place of the app's own
	// choice.
	Request(n uint64, arg []byte) (datagram []byte, key uint64, err error)
	// Reply reads a datagram: the key of the request it answers, and how.
	Reply(in []byte) (key uint64, v Verdict)
}

// KVS is memcached-over-UDP GET traffic.
type KVS struct {
	// Key picks each request's key (a Zipf sampler, a cycling counter).
	Key func() string
}

func kvsDatagram(id uint16, req memcache.Request) []byte {
	return memcache.EncodeFrame(memcache.Frame{RequestID: id, Total: 1}, memcache.EncodeRequest(req))
}

// Request implements App.
func (k *KVS) Request(n uint64, arg []byte) ([]byte, uint64, error) {
	req := memcache.Request{Op: memcache.OpGet}
	if req.Key = string(arg); arg == nil {
		req.Key = k.Key()
	}
	return kvsDatagram(uint16(n), req), uint64(uint16(n)), nil
}

// Reply implements App.
func (k *KVS) Reply(in []byte) (uint64, Verdict) {
	frame, body, err := memcache.DecodeFrame(in)
	if err != nil {
		return 0, Bad
	}
	resp, err := memcache.ParseResponse(body)
	switch {
	case err != nil:
		return 0, Bad
	case resp.Hit:
		return uint64(frame.RequestID), Hit
	}
	return uint64(frame.RequestID), Answered
}

// DNS is A-query traffic. Names go out with a deterministic,
// id-dependent subset of letters upper-cased, as real resolver traffic
// arrives, so the server's case-insensitive fold is always on the path.
type DNS struct {
	// Name picks each query's name.
	Name func() string
}

// Request implements App.
func (d *DNS) Request(n uint64, arg []byte) ([]byte, uint64, error) {
	name := append([]byte(nil), arg...)
	if arg == nil {
		name = []byte(d.Name())
	}
	x := n*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03 // xorshift over the id
	for i := range name {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if name[i] >= 'a' && name[i] <= 'z' && x&1 != 0 {
			name[i] -= 'a' - 'A'
		}
	}
	out, err := dns.Encode(dns.NewQuery(uint16(n), string(name)))
	return out, uint64(uint16(n)), err
}

// Reply implements App.
func (d *DNS) Reply(in []byte) (uint64, Verdict) {
	m, err := dns.Decode(in, 0)
	switch {
	case err != nil || !m.Response:
		return 0, Bad
	case m.RCode == dns.RCodeNXDomain:
		return uint64(m.ID), NXDomain
	case m.RCode == dns.RCodeNoError && m.HasAnswer:
		return uint64(m.ID), Resolved
	}
	return uint64(m.ID), Answered
}

// Vote is Phase2A traffic at an acceptor, which replies the 2B to the
// sender (learner fan-out is separate) with the instance echoed back as
// the correlation id. A wrapped id re-votes an accepted instance, which
// by the §9.2 rules answers with the original value, so correlation
// holds.
type Vote struct {
	// Value is the command every 2A carries.
	Value []byte
}

// Request implements App.
func (v Vote) Request(n uint64, _ []byte) ([]byte, uint64, error) {
	id := uint64(uint16(n))
	return paxosDatagram(&paxos.MsgView{Type: paxos.MsgPhase2A, Instance: id, Ballot: 1, Value: v.Value}), id, nil
}

func paxosDatagram(m *paxos.MsgView) []byte {
	return paxos.AppendMsgView(make([]byte, 0, 48+len(m.ClientAddr)+len(m.Value)), m)
}

// Reply implements App: a 2B is the vote; a 1B, a ballot refusal, still
// answers the request.
func (v Vote) Reply(in []byte) (uint64, Verdict) {
	var m paxos.MsgView
	switch {
	case paxos.DecodeView(in, &m) != nil:
	case m.Type == paxos.MsgPhase2B:
		return uint64(uint16(m.Instance)), Voted
	case m.Type == paxos.MsgPhase1B:
		return uint64(uint16(m.Instance)), Answered
	}
	return 0, Bad
}

// Proposer is client-request traffic at a leader; the decision comes
// back from a learner, to Addr.
type Proposer struct {
	ID   uint16
	Addr string
}

// Request implements App. The value proposed defaults to n itself.
func (p *Proposer) Request(n uint64, arg []byte) ([]byte, uint64, error) {
	if arg == nil {
		arg = binary.BigEndian.AppendUint64(nil, n)
	}
	return paxosDatagram(&paxos.MsgView{Type: paxos.MsgClientRequest,
		ClientID: p.ID, Seq: n, ClientAddr: []byte(p.Addr), Value: arg}), n, nil
}

// Reply implements App.
func (p *Proposer) Reply(in []byte) (uint64, Verdict) {
	var m paxos.MsgView
	if paxos.DecodeView(in, &m) != nil || m.Type != paxos.MsgDecision || m.ClientID != p.ID {
		return 0, Bad
	}
	return m.Seq, Decided
}
