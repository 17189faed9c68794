package nictier

import (
	"net/netip"
	"sync/atomic"

	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/fpga"
	"incod/internal/telemetry"
)

// DNSTier is the Emu-DNS-style fast path (§3.3): an answer table synced
// from the authoritative zone, serving A/IN resolution directly —
// including authoritative NXDOMAIN for unknown names ("Emu DNS informs
// the client that it cannot resolve the name"). Non-A/IN questions and
// stray responses fall through to the host handler, like the hardware
// classifier punting what the pipeline does not support.
//
// The tier syncs precompiled wire images, not ARecords: Warm snapshots
// the zone's wire-answer cache (sharing the immutable per-record
// response datagrams), so a tier answer is the same one-copy-and-patch
// as the host's and byte-identical to it. The installed table is an
// atomic pointer — the tier's epoch — which the batch path loads once
// per batch instead of once per datagram. Every reply the tier serves
// repeats its query's ID, so, like dns.Handler's, it is served Tagged
// and a client's answers may leave ahead of its shorter NXDOMAINs.
type DNSTier struct {
	zone *dns.Zone

	table  atomic.Pointer[dns.AnswerTable] // nil while parked or unwarmed
	active atomic.Bool
	power  cardPower

	counters    *telemetry.AtomicCounters
	answered    *atomic.Uint64
	nxdomain    *atomic.Uint64
	passthrough *atomic.Uint64
	synced      *atomic.Uint64
}

var _ dataplane.FastPath = (*DNSTier)(nil)
var _ dataplane.BatchFastPath = (*DNSTier)(nil)

// NewDNS returns an Emu-DNS-style tier synced from zone.
func NewDNS(zone *dns.Zone) *DNSTier {
	c := telemetry.NewAtomicCounters()
	return &DNSTier{
		zone:        zone,
		power:       newCardPower(fpga.EmuDNSDesign),
		counters:    c,
		answered:    c.Handle("answered"),
		nxdomain:    c.Handle("nxdomain"),
		passthrough: c.Handle("passthrough"),
		synced:      c.Handle("synced_records"),
	}
}

// Name implements Tier.
func (t *DNSTier) Name() string { return "emu-dns" }

// Counters implements Tier.
func (t *DNSTier) Counters() *telemetry.AtomicCounters { return t.counters }

// StatsCounters lets dataplane.Snapshot fold the tier counters in.
func (t *DNSTier) StatsCounters() *telemetry.AtomicCounters { return t.counters }

// HitRatio implements Tier: the fraction of classified queries answered
// from the table (NXDOMAINs are answers too, but only positive
// resolutions count as hits).
func (t *DNSTier) HitRatio() float64 {
	hits := t.answered.Load()
	total := hits + t.nxdomain.Load()
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// PowerWatts implements Tier.
func (t *DNSTier) PowerWatts() float64 {
	return t.power.watts(t.active.Load())
}

// Stage implements Tier. The table stays empty until Warm, so queries
// keep falling through to the host zone.
func (t *DNSTier) Stage() error {
	t.active.Store(true)
	return nil
}

// Warm implements Tier: the zone sync — snapshot the zone's wire-answer
// index into the tier's own table while the host keeps serving. One
// slice copy of the index; the answers and their precompiled images are
// shared, immutable.
func (t *DNSTier) Warm() error {
	table := t.zone.WireAnswers()
	t.table.Store(table)
	t.synced.Store(uint64(table.Len()))
	return nil
}

// Park implements Tier: drop the table (park-reset; state lost).
func (t *DNSTier) Park() error {
	t.active.Store(false)
	t.table.Store(nil)
	return nil
}

// serve verdicts. Classified queries (those the pipeline parsed and
// metered) are below tierUnparsed; only answered and nxdomain are served
// by the tier, the rest fall through to the host.
const (
	tierAnswered = iota
	tierNXDomain
	tierPunted   // parsed A/IN-incapable or pre-warm: metered, host serves
	tierUnparsed // malformed, compressed, too deep, or a stray response
	tierVerdicts
)

// serve answers one query from table (already loaded for the batch).
// served=false falls through to the host.
func (t *DNSTier) serve(table *dns.AnswerTable, in []byte, scratch *[]byte) (out []byte, served bool, verdict int) {
	var v dns.QuestionView
	if err := dns.ParseQuestion(in, dns.MaxLabels, &v); err != nil || v.Response() {
		// Malformed, compressed or too deep for the fixed pipeline, or a
		// stray response: host path semantics apply.
		return nil, false, tierUnparsed
	}
	if v.QType != dns.TypeA || v.QClass != dns.ClassIN {
		// Beyond the pipeline: punt to the host software.
		return nil, false, tierPunted
	}
	if table == nil {
		// Not yet warmed: the host zone answers.
		return nil, false, tierPunted
	}
	if a, ok := table.Lookup(v.QName); ok {
		*scratch = a.AppendReply((*scratch)[:0], &v)
		return *scratch, true, tierAnswered
	}
	*scratch = dns.AppendNoAnswer((*scratch)[:0], in, &v, dns.RCodeNXDomain)
	return *scratch, true, tierNXDomain
}

func (t *DNSTier) count(verdict int, n uint64) {
	if n == 0 {
		return
	}
	switch verdict {
	case tierAnswered:
		t.answered.Add(n)
	case tierNXDomain:
		t.nxdomain.Add(n)
	default:
		t.passthrough.Add(n)
	}
}

// TryHandleDatagram implements dataplane.FastPath. The answer and
// NXDOMAIN paths do no heap allocation.
func (t *DNSTier) TryHandleDatagram(in []byte, _ netip.AddrPort, scratch *[]byte) ([]byte, bool, bool) {
	out, served, verdict := t.serve(t.table.Load(), in, scratch)
	if verdict < tierUnparsed {
		t.power.meter.Add(1)
	}
	t.count(verdict, 1)
	return out, served, served
}

// TryHandleBatch implements dataplane.BatchFastPath: the installed table
// — the tier's epoch — is loaded once for the whole batch, and the meter
// and counters are bumped once per batch; each item then takes the same
// classification as TryHandleDatagram, and a served item is Tagged.
func (t *DNSTier) TryHandleBatch(items []*dataplane.BatchItem) {
	table := t.table.Load()
	var counts [tierVerdicts]uint64
	for _, it := range items {
		out, served, verdict := t.serve(table, it.In, it.Scratch)
		counts[verdict]++
		if served {
			it.Served, it.Out, it.Tagged = true, out, true
		}
	}
	if classified := counts[tierAnswered] + counts[tierNXDomain] + counts[tierPunted]; classified > 0 {
		t.power.meter.Add(classified)
	}
	for verdict, n := range counts {
		t.count(verdict, n)
	}
}
