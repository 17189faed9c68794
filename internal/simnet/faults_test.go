package simnet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
	"time"
)

// chatter runs a fixed request/reply workload between two nodes over a
// faulted network and returns a hash of every packet event and the
// number of replies the client got.
func chatter(seed int64, plan FaultPlan, packets int) (uint64, int) {
	sim := New(seed)
	net := NewNetwork(sim, LinkConfig{Delay: 10 * time.Microsecond})
	net.SetFaultPlan(plan)
	h := fnv.New64a()
	net.SetTracer(func(kind string, at Time, src, dst Addr, payload []byte) {
		fmt.Fprintf(h, "%s %s %s ", kind, src, dst)
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(at)))
		h.Write(payload)
	})
	received := 0
	net.Attach(&NodeFunc{Address: "server", Handler: func(pkt *Packet) {
		reply := &Packet{Src: "server", Dst: pkt.Src, Payload: append([]byte("re:"), pkt.Payload...)}
		net.Send(reply)
	}})
	net.Attach(&NodeFunc{Address: "client", Handler: func(pkt *Packet) { received++ }})
	for i := 0; i < packets; i++ {
		i := i
		sim.Schedule(time.Duration(i)*time.Microsecond, func() {
			net.Send(&Packet{Src: "client", Dst: "server", Payload: []byte(fmt.Sprintf("req-%d", i))})
		})
	}
	sim.Run()
	return h.Sum64(), received
}

func TestFaultPlanSeededDeterminism(t *testing.T) {
	plan := FaultPlan{Default: Faults{
		LossRate: 0.1, DupRate: 0.15, ReorderRate: 0.3, JitterMax: 20 * time.Microsecond,
	}}
	hashA, recvA := chatter(42, plan, 500)
	hashB, recvB := chatter(42, plan, 500)
	if hashA != hashB {
		t.Fatalf("same seed diverged: trace hashes %x vs %x", hashA, hashB)
	}
	if recvA != recvB {
		t.Fatalf("same seed diverged: %d vs %d replies", recvA, recvB)
	}
	if hashC, _ := chatter(43, plan, 500); hashA == hashC {
		t.Fatalf("different seeds produced identical trace hash %x", hashA)
	}
}

func TestReorderWindowBoundsDelay(t *testing.T) {
	const window = reorderWindow
	sim := New(7)
	net := NewNetwork(sim, LinkConfig{Delay: 10 * time.Microsecond})
	net.SetFaultPlan(FaultPlan{Default: Faults{ReorderRate: 1}})
	var worst time.Duration
	held := 0
	// Packet i leaves at i µs and carries i as its one payload byte.
	net.Attach(&NodeFunc{Address: "sink", Handler: func(pkt *Packet) {
		d := sim.Now().Sub(Time(time.Duration(pkt.Payload[0]) * time.Microsecond))
		if d > worst {
			worst = d
		}
		if d > 10*time.Microsecond {
			held++
		}
	}})
	for i := 0; i < 200; i++ {
		sim.Schedule(time.Duration(i)*time.Microsecond, func() {
			net.Send(&Packet{Src: "src", Dst: "sink", Payload: []byte{byte(i)}})
		})
	}
	sim.Run()
	if max := 10*time.Microsecond + window; worst > max {
		t.Fatalf("reordered packet delayed %v, beyond propagation+window bound %v", worst, max)
	}
	if held != 200 {
		t.Fatalf("%d packets held past propagation, want 200 at rate 1", held)
	}
}

func TestDuplicationAccounting(t *testing.T) {
	sim := New(11)
	net := NewNetwork(sim, LinkConfig{})
	net.SetFaultPlan(FaultPlan{Default: Faults{DupRate: 0.5}})
	kinds := countKinds(net)
	delivered := 0
	net.Attach(&NodeFunc{Address: "sink", Handler: func(*Packet) { delivered++ }})
	const sent = 400
	for i := 0; i < sent; i++ {
		sim.Schedule(time.Duration(i)*time.Microsecond, func() {
			net.Send(&Packet{Src: "src", Dst: "sink", Payload: []byte("d")})
		})
	}
	sim.Run()
	dups := kinds[TraceDup]
	if dups == 0 {
		t.Fatal("no duplicates injected at rate 0.5")
	}
	if want := sent + dups; delivered != want {
		t.Fatalf("delivered %d, want sent(%d) + duplicated(%d) = %d", delivered, sent, dups, want)
	}
	if kinds[TraceDeliver] != sent {
		t.Fatalf("%d originals delivered, want %d", kinds[TraceDeliver], sent)
	}
}

// A partition is a fault plan that loses every packet between two nodes;
// a new plan heals it.
func TestPartitionHeal(t *testing.T) {
	sim := New(3)
	net := NewNetwork(sim, LinkConfig{Delay: time.Microsecond})
	got := 0
	net.Attach(&NodeFunc{Address: "b", Handler: func(*Packet) { got++ }})
	send := func() { net.Send(&Packet{Src: "a", Dst: "b", Payload: []byte("p")}) }

	net.SetFaultPlan(FaultPlan{Links: map[[2]Addr]Faults{{"a", "b"}: {LossRate: 1}, {"b", "a"}: {LossRate: 1}}})
	for i := 0; i < 10; i++ {
		send()
	}
	sim.Run()
	if got != 0 {
		t.Fatalf("partitioned packets delivered: got %d", got)
	}
	net.SetFaultPlan(FaultPlan{})
	send()
	sim.Run()
	if got != 1 {
		t.Fatalf("post-heal delivery failed: got %d", got)
	}
}
