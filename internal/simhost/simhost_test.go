package simhost

import (
	"container/list"
	"math/rand"
	"testing"
	"time"

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
	net.Attach(&simnet.NodeFunc{Address: "client", Handler: func(*simnet.Packet) {
		at = append(at, net.Sim().Now())
	}})
	return &at
}

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
	if _, host := node.Served(); host != 0 {
		t.Fatalf("%d datagrams handled before the window elapsed", host)
	}
	node.Barrier()
	if _, host := node.Served(); host != 3 {
		t.Fatalf("Barrier landed %d of 3 pending datagrams", host)
	}
	sim.Run()
	if len(*got) != 3 || (*got)[2] >= simnet.Time(time.Millisecond) {
		t.Errorf("replies arrived at %v, want 3 before the window's end", *got)
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
