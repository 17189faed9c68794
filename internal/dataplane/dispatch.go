package dataplane

import "net/netip"

// dispatch is the engine's dispatch core: fp (nil = no tier) is offered
// the whole batch, the host handler gets the items no tier marked
// Served, in batch form when it has one, and every reply lands in its
// item's Out. It returns that host-bound subset, built in rest[:0].
// Fencing and counting stay with the caller.
func (e *Engine) dispatch(fp FastPath, items, rest []*BatchItem) []*BatchItem {
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
	case e.bh != nil:
		e.bh.HandleBatch(rest)
	default:
		for _, it := range rest {
			it.Out = e.host(it.In, it.Src, it.Scratch)
		}
	}
	return rest
}

// host is one per-datagram host handler call.
func (e *Engine) host(in []byte, src netip.AddrPort, scratch *[]byte) []byte {
	var out []byte
	var ok bool
	if e.sh != nil {
		out, ok = e.sh.HandleDatagramFrom(in, src, scratch)
	} else {
		out, ok = e.h.HandleDatagram(in, scratch)
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
