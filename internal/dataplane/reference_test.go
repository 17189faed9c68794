package dataplane

import "net/netip"

// ServeOne is the tests' per-datagram reference for every serving loop,
// written without the engine's dispatch core: the tier's
// TryHandleDatagram (fp nil = no tier), then, for what it leaves, the
// host handler's HandleDatagramFrom, or HandleDatagram when it has no
// source form. out is the reply to send, nil for none; offloaded reports
// that the tier consumed the datagram.
func ServeOne(fp FastPath, h Handler, in []byte, src netip.AddrPort, scratch *[]byte) (out []byte, offloaded bool) {
	if fp != nil {
		if out, served, reply := fp.TryHandleDatagram(in, src, scratch); served {
			if !reply {
				out = nil
			}
			return out, true
		}
	}
	ok := false
	if sh, isSrc := h.(SourceHandler); isSrc {
		out, ok = sh.HandleDatagramFrom(in, src, scratch)
	} else {
		out, ok = h.HandleDatagram(in, scratch)
	}
	if !ok {
		out = nil
	}
	return out, false
}
