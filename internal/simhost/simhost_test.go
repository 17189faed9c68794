package simhost

import (
	"container/list"
	"math/rand"
	"strings"
	"testing"
	"time"

	"incod/internal/core"
	"incod/internal/daemon"
	"incod/internal/dataplane"
	"incod/internal/fpga"
	"incod/internal/power"
	"incod/internal/simnet"
)

func TestRecencyEvictsLeastRecent(t *testing.T) {
	r := recency{bound: 2, at: make(map[uint64]*list.Element)}
	if r.touch(1) || r.touch(2) {
		t.Fatal("fresh keys reported present")
	}
	if !r.touch(1) { // 1 is now the most recent, 2 the least
		t.Fatal("key 1 lost")
	}
	r.touch(3) // evicts 2
	if !r.touch(1) || !r.touch(3) || r.touch(2) {
		t.Error("bound 2 should have kept {1,3} and dropped 2")
	}
	r.flush()
	if r.touch(1) || len(r.at) != 1 {
		t.Error("flush should empty the set")
	}
}

// echo answers every datagram with itself.
var echo = dataplane.HandlerFunc(func(in []byte, scratch *[]byte) ([]byte, bool) {
	*scratch = append((*scratch)[:0], in...)
	return *scratch, true
})

// listen attaches a client node and returns the arrival times of what
// it receives.
func listen(net *simnet.Network) *[]simnet.Time {
	var at []simnet.Time
	net.Attach(&replyNode{"client", func(*simnet.Packet) {
		at = append(at, net.Sim().Now())
	}})
	return &at
}

// replyNode is a simnet node that hands every packet it receives to fn.
type replyNode struct {
	addr simnet.Addr
	fn   func(*simnet.Packet)
}

func (r *replyNode) Addr() simnet.Addr          { return r.addr }
func (r *replyNode) Receive(pkt *simnet.Packet) { r.fn(pkt) }

// Barrier is the pre-warm fence of a shift: with a batch window it must
// land everything delivered so far at once, not when the window elapses.
func TestBarrierFlushesWindow(t *testing.T) {
	sim := simnet.New(1)
	net := simnet.NewNetwork(sim, simnet.LinkConfig{})
	node := NewNode(net, "server", echo, time.Millisecond, nil)
	got := listen(net)
	for i := 0; i < 3; i++ {
		net.Send(&simnet.Packet{Src: "client", Dst: "server", Payload: []byte{byte(i)}})
	}
	sim.RunFor(time.Microsecond)
	if host := node.Stats().Handled; host != 0 {
		t.Fatalf("%d datagrams handled before the window elapsed", host)
	}
	node.Barrier()
	if host := node.Stats().Handled; host != 3 {
		t.Fatalf("Barrier landed %d of 3 pending datagrams", host)
	}
	sim.Run()
	if len(*got) != 3 || (*got)[2] >= simnet.Time(time.Millisecond) {
		t.Errorf("replies arrived at %v, want 3 before the window's end", *got)
	}
}

// A datagram longer than MaxDatagram never reaches the engine, cut or
// whole: the node drops it, answers nothing and counts it; one of exactly
// MaxDatagram bytes is served.
func TestOversizeDatagramDropped(t *testing.T) {
	sim := simnet.New(1)
	net := simnet.NewNetwork(sim, simnet.LinkConfig{})
	node := NewNode(net, "server", echo, 0, nil)
	got := listen(net)
	net.Send(&simnet.Packet{Src: "client", Dst: "server", Payload: make([]byte, 4<<10)})
	sim.Run()
	if st := node.Stats(); len(*got) != 0 || st.Dropped != 1 || st.Received != 0 {
		t.Fatalf("4 KiB datagram: %d replies, dropped %d, engine received %d; want 0, 1, 0", len(*got), st.Dropped, st.Received)
	}
	net.Send(&simnet.Packet{Src: "client", Dst: "server", Payload: make([]byte, MaxDatagram)})
	sim.Run()
	if st := node.Stats(); len(*got) != 1 || st.Dropped != 1 || st.Replies != 1 {
		t.Fatalf("MaxDatagram-byte datagram: %d replies, dropped %d, engine replied %d; want 1, 1, 1", len(*got), st.Dropped, st.Replies)
	}
}

// A model delays each reply by the service time of whoever served it,
// through the batch window as well as without it.
func TestModelDelaysReplies(t *testing.T) {
	for _, window := range []time.Duration{0, 10 * time.Microsecond} {
		sim := simnet.New(1)
		net := simnet.NewNetwork(sim, simnet.LinkConfig{})
		NewNode(net, "server", echo, window, &Model{
			Curve:       power.MemcachedMellanox,
			Design:      fpga.LaKeDesign,
			HostTime:    func(*rand.Rand, float64) time.Duration { return 7 * time.Microsecond },
			Passthrough: 600 * time.Nanosecond,
		})
		got := listen(net)
		net.Send(&simnet.Packet{Src: "client", Dst: "server", Payload: []byte("x")})
		sim.Run()
		want := simnet.Time(600*time.Nanosecond + window + 7*time.Microsecond)
		if len(*got) != 1 || (*got)[0] != want {
			t.Errorf("window %v: reply at %v, want one at %v (NIC hop, window, host time)", window, *got, want)
		}
	}
}

// The orchestrator reads one clock. On the virtual one a pin is dated by
// the simulator, not by the host the test runs on: the record's At is the
// virtual time of the pin, the /v1 string is 1970 plus it, the shift took
// no virtual time, and two runs of one seed agree on all of it.
func TestPinIsDatedOnTheVirtualClock(t *testing.T) {
	run := func() (core.Transition, daemon.ServiceStatus) {
		sim := simnet.New(3)
		lake := NewKVS(simnet.NewNetwork(sim, simnet.TenGigE), "lake", LaKe())
		lake.Preload(100, 8)
		orch, _ := Orchestrate(sim, 100*time.Millisecond, daemon.ServiceConfig{Service: lake.Service}, lake.Observed)
		sim.RunFor(1250 * time.Millisecond)
		if err := orch.Pin(core.Network); err != nil {
			t.Fatal(err)
		}
		sim.RunFor(time.Second)
		status, _ := orch.Status()
		trs := orch.Transitions()
		if status.Placement != "network" || len(trs) != 1 || len(status.Transitions) != 1 {
			t.Fatalf("pin did not shift once: %+v", status)
		}
		trs[0].Task = "" // the tier's task name times its own steps on the wall clock
		return trs[0], status
	}
	tr, status := run()
	if tr.At != 1250*time.Millisecond || tr.Took != 0 {
		t.Errorf("pin at virtual 1.25s recorded at %v, took %v", tr.At, tr.Took)
	}
	stamp := time.Unix(0, 0).Add(tr.At).Format(time.RFC3339) + " -> network in 0s (manual placement pin)"
	if !strings.HasPrefix(status.Transitions[0], stamp) {
		t.Errorf("status entry %q, want prefix %q", status.Transitions[0], stamp)
	}
	again, statusAgain := run()
	if tr != again || status.LastShiftDuration != statusAgain.LastShiftDuration {
		t.Errorf("same seed, different records: %+v (%q) vs %+v (%q)",
			tr, status.LastShiftDuration, again, statusAgain.LastShiftDuration)
	}
}
