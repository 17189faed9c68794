package dataplane

import "net/netip"

// Dispatcher is the dispatch core every serving loop shares — the
// engine's shard workers (Batch) and the simulated node of internal/simhost
// (One, or Batch in a window): offer a datagram (or a batch) to the fast
// path, hand whatever the tier left to the host handler, in batch form
// when the handler has one. It is built once per handler, so the
// optional-interface assertions are not repeated per datagram. Fencing
// and counting stay with the caller.
type Dispatcher struct {
	h  Handler
	sh SourceHandler // non-nil when h implements SourceHandler
	bh BatchHandler  // non-nil when h implements BatchHandler
}

// NewDispatcher builds the dispatch core for host handler h.
func NewDispatcher(h Handler) Dispatcher {
	d := Dispatcher{h: h}
	d.sh, _ = h.(SourceHandler)
	d.bh, _ = h.(BatchHandler)
	return d
}

// One dispatches a single datagram: fp first (nil = no tier installed),
// the host handler when the tier leaves it. out is the reply to send,
// empty for none; offloaded reports that the tier consumed the datagram.
func (d *Dispatcher) One(fp FastPath, in []byte, src netip.AddrPort, scratch *[]byte) (out []byte, offloaded bool) {
	if fp != nil {
		if out, served, reply := fp.TryHandleDatagram(in, src, scratch); served {
			if !reply {
				out = nil
			}
			return out, true
		}
	}
	return d.host(in, src, scratch), false
}

// Batch dispatches a batch: fp is offered all of it, the host handler
// gets the items no tier marked Served, and every reply lands in its
// item's Out. It returns that host-bound subset, built in rest[:0].
func (d *Dispatcher) Batch(fp FastPath, items, rest []*BatchItem) []*BatchItem {
	if fp != nil {
		OfferBatch(fp, items)
	}
	rest = rest[:0]
	for _, it := range items {
		if !it.Served {
			rest = append(rest, it)
		}
	}
	switch {
	case len(rest) == 0:
	case d.bh != nil:
		d.bh.HandleBatch(rest)
	default:
		for _, it := range rest {
			it.Out = d.host(it.In, it.Src, it.Scratch)
		}
	}
	return rest
}

// host is one per-datagram host handler call.
func (d *Dispatcher) host(in []byte, src netip.AddrPort, scratch *[]byte) []byte {
	var out []byte
	var ok bool
	if d.sh != nil {
		out, ok = d.sh.HandleDatagramFrom(in, src, scratch)
	} else {
		out, ok = d.h.HandleDatagram(in, scratch)
	}
	if !ok {
		return nil
	}
	return out
}

// OfferBatch offers items to fp, in batch form when it has one. Items
// the tier consumes are marked Served, with Out set when a reply should
// go out; the rest are untouched.
func OfferBatch(fp FastPath, items []*BatchItem) {
	if b, ok := fp.(BatchFastPath); ok {
		b.TryHandleBatch(items)
		return
	}
	for _, it := range items {
		if out, served, reply := fp.TryHandleDatagram(it.In, it.Src, it.Scratch); served {
			it.Served = true
			if reply {
				it.Out = out
			}
		}
	}
}
