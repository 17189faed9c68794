package simnet

import (
	"testing"
	"time"
)

// NodeFunc adapts a function to the Node interface.
type NodeFunc struct {
	Address Addr
	Handler func(pkt *Packet)
}

func (f *NodeFunc) Addr() Addr { return f.Address }

func (f *NodeFunc) Receive(pkt *Packet) {
	if f.Handler != nil {
		f.Handler(pkt)
	}
}

func TestDelivery(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, LinkConfig{Delay: time.Microsecond})
	var got *Packet
	var at Time
	n.Attach(&NodeFunc{Address: "b", Handler: func(p *Packet) { got, at = p, s.Now() }})
	n.Attach(&NodeFunc{Address: "a"})
	ok := n.Send(&Packet{Src: "a", Dst: "b", Payload: []byte("hi")})
	if !ok {
		t.Fatal("Send rejected packet on empty link")
	}
	s.Run()
	if got == nil || string(got.Payload) != "hi" {
		t.Fatalf("packet not delivered: %+v", got)
	}
	if at != Time(time.Microsecond) {
		t.Errorf("delivered at %v, want 1µs (propagation only, infinite bandwidth)", at)
	}
}

func TestSerializationDelay(t *testing.T) {
	s := New(1)
	// 1 Gbps link: a 1250-byte wire packet takes 10µs to serialize.
	n := NewNetwork(s, LinkConfig{Bandwidth: 1e9})
	var at Time
	n.Attach(&NodeFunc{Address: "b", Handler: func(p *Packet) { at = s.Now() }})
	n.Send(&Packet{Src: "a", Dst: "b", Payload: make([]byte, 1250-42)})
	s.Run()
	if at != Time(10*time.Microsecond) {
		t.Errorf("delivered at %v, want 10µs", at)
	}
}

func TestBackToBackPacketsQueueOnLink(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, LinkConfig{Bandwidth: 1e9})
	var times []Time
	n.Attach(&NodeFunc{Address: "b", Handler: func(p *Packet) { times = append(times, s.Now()) }})
	// Two packets sent at t=0 must serialize one after the other.
	n.Send(&Packet{Src: "a", Dst: "b", Payload: make([]byte, 1250-42)})
	n.Send(&Packet{Src: "a", Dst: "b", Payload: make([]byte, 1250-42)})
	s.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(times))
	}
	if times[0] != Time(10*time.Microsecond) || times[1] != Time(20*time.Microsecond) {
		t.Errorf("delivery times %v, want [10µs 20µs]", times)
	}
}

func TestQueueLimitDrops(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, LinkConfig{Bandwidth: 1e6, QueueLimit: 2})
	kinds := countKinds(n)
	n.Attach(&NodeFunc{Address: "b"})
	sent := 0
	for i := 0; i < 5; i++ {
		if n.Send(&Packet{Src: "a", Dst: "b", Payload: make([]byte, 1000-42)}) {
			sent++
		}
	}
	if sent != 2 {
		t.Errorf("accepted %d packets, want 2 (queue limit)", sent)
	}
	s.Run()
	if kinds[TraceDropQueue] != 3 || kinds[TraceDeliver] != 2 {
		t.Errorf("trace events = %v, want 2 delivered, 3 queue drops", kinds)
	}
}

// countKinds installs a tracer on n that counts events by kind.
func countKinds(n *Network) map[string]int {
	kinds := map[string]int{}
	n.SetTracer(func(kind string, _ Time, _, _ Addr, _ []byte) { kinds[kind]++ })
	return kinds
}

func TestUnroutable(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, LinkConfig{})
	kinds := countKinds(n)
	n.Send(&Packet{Src: "a", Dst: "ghost"})
	s.Run()
	if kinds[TraceUnroutable] != 1 {
		t.Errorf("unroutable events = %d, want 1", kinds[TraceUnroutable])
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate address")
		}
	}()
	s := New(1)
	n := NewNetwork(s, LinkConfig{})
	n.Attach(&NodeFunc{Address: "x"})
	n.Attach(&NodeFunc{Address: "x"})
}

func TestWireSizeDefault(t *testing.T) {
	p := &Packet{Payload: make([]byte, 100)}
	if p.WireSize() != 142 {
		t.Errorf("WireSize() = %d, want 142 (payload+headers)", p.WireSize())
	}
}
