package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// Spans are recorded from this directory's own decorators around the
// calls into each layer (decorate.go); nothing inside the daemons'
// packages is instrumented. One engine turn — a ReadBatch return up to
// the next ReadBatch call, i.e. a batch and its flush — is a root span;
// the read that fed it, the tier call, the handler call and the writes
// are its children and share its turn id. Spans go to a preallocated
// ring and are written out when the twin exits.

type spanName uint8

const (
	spTurn spanName = iota
	spRead
	spTier
	spHandler
	spWrite
	spSetFastPath
	spBarrier
	spClearFastPath
	spStage
	spWarm
	spPark
	spNames
)

var spanNames = [spNames]string{"dataplane.turn", "netio.read", "tier.batch", "handler.batch", "netio.write",
	"dataplane.setfastpath", "dataplane.barrier", "dataplane.clearfastpath",
	"nictier.stage", "nictier.warm", "nictier.park"}

// span is one timed call. Times are wall-clock nanoseconds so the
// harness, a different process, can line them up with its phases.
type span struct {
	Name       spanName
	Epoch      uint8
	Turn       uint32 // 0 for spans outside any turn (shift calls)
	N          int32  // datagrams moved or offered
	Start, End int64
}

// tracer is the in-memory span ring. add is safe from any goroutine.
type tracer struct {
	ring  []span
	next  atomic.Uint64
	turns atomic.Uint32
	// cur is the turn most recently opened. With one serving socket — the
	// reference host — it is exactly the turn a handler or tier call
	// belongs to; with several sockets it is the latest of them.
	cur atomic.Uint32
	// curStart is when cur's handler call began on the single-reader
	// engine, where that call is what opens the turn.
	curStart atomic.Int64
	epoch    atomic.Uint32
}

// ringSpans holds a traced run's spans with room to spare: the
// single-reader engine makes four per datagram, about 1.3 M in all.
const ringSpans = 1 << 21

func newTracer() *tracer { return &tracer{ring: make([]span, ringSpans)} }

func (t *tracer) add(name spanName, turn uint32, n int, start, end time.Time) {
	i := t.next.Add(1) - 1
	if i >= uint64(len(t.ring)) {
		return // ring full: later spans are dropped, and counted in the summary
	}
	t.ring[i] = span{Name: name, Epoch: sliceKind(t.epoch.Load()), Turn: turn, N: int32(n),
		Start: start.UnixNano(), End: end.UnixNano()}
}

// sliceKind turns the count of boundary marks into the kind of slice
// under way. The harness marks three boundaries in every cycle: the
// paced slice begins (1), the saturate turns begin (2), they end (3).
// Before the first mark, warm-up: 0.
func sliceKind(marks uint32) uint8 {
	if marks == 0 {
		return 0
	}
	return uint8((marks-1)%3 + 1)
}

func (t *tracer) spans() []span {
	n := t.next.Load()
	if n > uint64(len(t.ring)) {
		n = uint64(len(t.ring))
	}
	return t.ring[:n]
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other or stick out of the
// parent; only their union inside the parent counts.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return parent.End - parent.Start - covered
}

// layerSums is what one epoch's spans add up to.
type layerSums struct {
	Turns   int64 `json:"turns"`
	Packets int64 `json:"packets"`
	TurnNs  int64 `json:"turn_ns"`    // Σ root spans
	SelfNs  int64 `json:"self_ns"`    // Σ root self time: the engine's own work
	TierNs  int64 `json:"tier_ns"`    // Σ tier.batch
	HandNs  int64 `json:"handler_ns"` // Σ handler.batch
	WriteNs int64 `json:"write_ns"`   // Σ netio.write
	WritePk int64 `json:"write_packets"`
	// A read's span includes however long the worker sat blocked in it, so
	// reads are summed up by the median of their ns per datagram: under the
	// saturate burst most reads find data waiting, and the median is then
	// the receive call's own cost.
	Reads        int64   `json:"reads"`
	ReadMedNsPkt float64 `json:"read_median_ns_pkt"`
	// Shift calls, by name: durations in ns, in call order.
	Shift map[string][]int64 `json:"shift,omitempty"`
}

// summarize folds the ring into per-epoch sums. Children are appended
// before their root (the root closes when the next read begins), so one
// pass with a per-turn holding area is enough.
func summarize(spans []span) map[int]*layerSums {
	out := map[int]*layerSums{}
	held := map[uint32][]span{}
	reads := map[int][]float64{}
	for _, s := range spans {
		sums := out[int(s.Epoch)]
		if sums == nil {
			sums = &layerSums{Shift: map[string][]int64{}}
			out[int(s.Epoch)] = sums
		}
		d := s.End - s.Start
		switch s.Name {
		case spTurn:
			sums.Turns++
			sums.Packets += int64(s.N)
			sums.TurnNs += d
			sums.SelfNs += selfTime(s, held[s.Turn])
			delete(held, s.Turn)
		case spRead:
			sums.Reads++
			reads[int(s.Epoch)] = append(reads[int(s.Epoch)], float64(d)/float64(max(s.N, 1)))
		case spTier, spHandler, spWrite:
			held[s.Turn] = append(held[s.Turn], s)
			switch s.Name {
			case spTier:
				sums.TierNs += d
			case spHandler:
				sums.HandNs += d
			default:
				sums.WriteNs += d
				sums.WritePk += int64(s.N)
			}
		default:
			sums.Shift[spanNames[s.Name]] = append(sums.Shift[spanNames[s.Name]], d)
		}
	}
	for e, vs := range reads {
		out[e].ReadMedNsPkt = median(vs)
	}
	return out
}

// traceFile is what the twin leaves behind: the per-epoch sums the
// harness turns into metrics, and the spans themselves for a reader.
type traceFile struct {
	Workload string             `json:"workload"`
	Dropped  uint64             `json:"dropped_spans"`
	Epochs   map[int]*layerSums `json:"epochs"`
	Spans    []spanJSON         `json:"spans"`
}

type spanJSON struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Turn   uint32 `json:"turn,omitempty"`
	N      int32  `json:"n,omitempty"`
}

// maxSpansWritten bounds the trace file; the sums cover every span.
const maxSpansWritten = 50_000

func (t *tracer) write(path, workload string) error {
	spans := t.spans()
	f := traceFile{Workload: workload, Epochs: summarize(spans)}
	if n := t.next.Load(); n > uint64(len(t.ring)) {
		f.Dropped = n - uint64(len(t.ring))
	}
	for _, s := range spans {
		if s.Epoch == 0 {
			continue // boot, preload and warm-up
		}
		if len(f.Spans) == maxSpansWritten {
			break
		}
		j := spanJSON{Name: spanNames[s.Name], Start: s.Start, End: s.End, Turn: s.Turn, N: s.N}
		if s.Turn != 0 && s.Name != spTurn {
			j.Parent = spanNames[spTurn]
		}
		f.Spans = append(f.Spans, j)
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readTrace(path string) (*traceFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &traceFile{}
	return f, json.Unmarshal(b, f)
}
