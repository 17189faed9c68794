// Package dns implements the DNS case study (§3.3): a real DNS wire codec
// (header, question, A answers with name compression), the authoritative
// Zone, and the Handler that answers from it (the NSD role). The Emu DNS
// card — non-recursive name -> IPv4 resolution from an on-chip copy of
// the zone, behind a packet classifier so the card also serves as a NIC
// — is nictier.DNSTier; internal/simhost serves handler and tier on the
// simulator's clock, and the paper's cost model for the pair (NSD at ~70x
// the pipeline's latency, the card's watts) is simhost.EmuDNS.
//
// # The serving hot path
//
// The live datapath (Handler behind incdnsd, and nictier's Emu-DNS-style
// answer table) never touches the string-based Message API. Queries are
// parsed into a QuestionView whose QName is a byte view over the inbound
// datagram — no per-packet name string — and answers come from the
// zone's precompiled wire-answer cache:
//
//   - Zone.Add compiles the full response datagram for the record once —
//     header, question (canonical lowercase name), and a compressed A
//     answer — into a WireAnswer. Answering a query is then one copy of
//     that image into the reply buffer plus patching the two ID bytes,
//     the two flags bytes (QR|AA plus the query's RD bit), and echoing
//     the client's spelling of the name over the question section
//     (fold-equal names have identical wire length, so the patch is
//     in place).
//   - Lookups are case-insensitive without allocating: the wire-form
//     name is hashed and compared under ASCII folding (FNV-1a over
//     folded bytes) instead of strings.ToLower, which allocates on every
//     mixed-case query.
//   - Negative responses (NXDOMAIN, NOTIMPL) are appended directly from
//     the view, echoing the raw question section.
//
// Together these make the answer-hit, NXDOMAIN and NOTIMPL paths zero
// heap allocations per query; only queries using compression pointers in
// the question name fall back to the allocating Message codec.
//
// Every reply, from either path, repeats its query's ID, so the client
// matches it in any order: HandleBatch (and nictier.DNSTier) serve each
// reply Tagged (dataplane.BatchItem), and a batched engine that sends
// UDP_SEGMENT trains may send a client's answers as one train ahead of
// its NXDOMAINs, which lack the answer record and are shorter.
//
// # Cache coherence
//
// WireAnswer images are immutable once compiled. Zone.Add replaces the
// record's image (it never mutates one in place), keeping the cache
// exactly in sync with the records map; it is a writer-side operation —
// a Zone is a plain map, safe for any number of
// concurrent readers only while nobody writes, which is the daemons'
// load-then-serve lifecycle. The offload tier's zone sync
// (nictier.DNSTier.Warm) snapshots the cache with Zone.WireAnswers: the
// snapshot owns its own index but shares the immutable images, so a
// sync is one map copy, not a recompilation, and a tier answer is
// byte-identical to the host's.
package dns
