package fleet

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"incod/internal/cluster"
	"incod/internal/core"
	"incod/internal/memcache"
)

// A member of each kind, pinned to the network, serves real UDP from its
// NIC tier: the tier's hits show in the member's own dataplane stats.
func TestMembersServeFromTheirTiers(t *testing.T) {
	members := replayFleet(t)
	traces := map[string]cluster.LoadTrace{}
	for _, m := range members {
		if !m.Orch.Ready() {
			t.Fatalf("%s: engine not serving after StartMember", m.Name)
		}
		if err := m.Orch.Pin(core.Network); err != nil {
			t.Fatal(err)
		}
		traces[m.Name] = cluster.LoadTrace{100, 100}
	}
	results, err := Replay(context.Background(), ReplayConfig{Wall: 300 * time.Millisecond, RateScale: 100}, members, traces)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		st, err := m.Orch.Status()
		if err != nil {
			t.Fatal(err)
		}
		dp, err := m.Orch.Dataplane()
		if err != nil {
			t.Fatal(err)
		}
		r := results[i]
		if st.Placement != "network" || !dp.TierActive || dp.TierName == "" {
			t.Errorf("%s: placement %s, tier %q active %v: want the tier lit", m.Name, st.Placement, dp.TierName, dp.TierActive)
		}
		if r.Sent == 0 || r.Answered != r.Sent || r.Bad != 0 {
			t.Errorf("%s: sent %d, answered %d, bad %d: want all answered", m.Name, r.Sent, r.Answered, r.Bad)
		}
		if dp.TierHitRatio <= 0 {
			t.Errorf("%s: tier %s hit ratio %v after %d requests: want its hits counted (tier counters %v)",
				m.Name, dp.TierName, dp.TierHitRatio, r.Sent, dp.Tier)
		}
	}
}

// The controller reads a member's health from its orchestrator's
// readiness probe: a member whose engine stops serving reads unhealthy
// on the next tick, and healthy again once it serves.
func TestClientHealthzTracksReadiness(t *testing.T) {
	m, _ := newTestMember(t, "kvs-0")
	ctrl, err := NewController(Config{Members: []Member{m}, Sched: SchedulerConfig{K: 1, Hold: 1}, RateScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	healthy := func() bool {
		ctrl.Tick()
		return ctrl.Snapshot().Healthy == 1
	}
	if !healthy() {
		t.Fatal("no probe installed: want healthy")
	}
	serving := false
	m.Orch.SetReady(func() bool { return serving })
	if healthy() {
		t.Fatal("engine not serving: want unhealthy")
	}
	serving = true
	if !healthy() {
		t.Fatal("engine serving: want healthy")
	}
}

// A started member is ready; once closed, its engine no longer serves.
func TestClientHealthyFalseOnDeadServer(t *testing.T) {
	m, err := StartMember("kvs", "kvs-0")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Orch.Ready() {
		t.Fatal("started member reported not ready")
	}
	m.Close()
	if m.Orch.Ready() {
		t.Fatal("closed member reported ready")
	}
}

// A started member holds its service on the host until pinned; pins move
// it and show in its status.
func TestClientServicesAndPin(t *testing.T) {
	m, err := StartMember("kvs", "kvs-0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	st, err := m.Orch.Status()
	if err != nil || st.Name != "kvs" || st.Placement != "host" {
		t.Fatalf("Status = %+v, %v", st, err)
	}
	if err := m.Orch.Pin(core.Network); err != nil {
		t.Fatal(err)
	}
	if st, err = m.Orch.Status(); err != nil || st.Placement != "network" || st.Pinned != "network" {
		t.Fatalf("after pin: %+v, %v", st, err)
	}
	if err := m.Orch.Pin(core.Host); err != nil {
		t.Fatal(err)
	}
	if st, err = m.Orch.Status(); err != nil || st.Placement != "host" {
		t.Fatalf("after pin to host: %+v, %v", st, err)
	}
}

// A kvs member is built from the kvs row as inckvsd is, hot-key sketch
// included: after SETs and GETs over loopback, its dataplane stats carry
// hot_keys.
func TestKVSMemberReportsHotKeys(t *testing.T) {
	m, err := StartMember("kvs", "kvs-0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	conn, err := net.Dial("udp", m.Data)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 2048)
	ask := func(id int, req memcache.Request) {
		t.Helper()
		if _, err := conn.Write(memcache.EncodeFrame(memcache.Frame{RequestID: uint16(id), Total: 1}, memcache.EncodeRequest(req))); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(buf); err != nil {
			t.Fatalf("request %d (%s %s): %v", id, req.Op, req.Key, err)
		}
	}
	const keys = 4
	for k := 0; k < keys; k++ {
		ask(k, memcache.Request{Op: memcache.OpSet, Key: fmt.Sprintf("hot-%d", k), Value: []byte("v")})
	}
	for i := 0; i < 256; i++ {
		ask(keys+i, memcache.Request{Op: memcache.OpGet, Key: fmt.Sprintf("hot-%d", i%keys)})
	}
	dp, err := m.Orch.Dataplane()
	if err != nil {
		t.Fatal(err)
	}
	if len(dp.HotKeys) == 0 {
		t.Fatalf("256 GET hits over %d keys and no hot_keys: the member's store has no sketch", keys)
	}
}
