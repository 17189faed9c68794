package fleet

import (
	"fmt"

	"incod/internal/daemon"
	"incod/internal/protocol"
)

// Member is one supervised serving instance.
type Member struct {
	// Name uniquely identifies the member fleet-wide (e.g. "kvs-0").
	Name string
	// Kind is the member's flavor, its protocol row's name.
	Kind string
	// Data is the UDP serving hostport load generators target.
	Data string
	// Orch is the member's orchestrator: the controller reads its status
	// and dataplane stats and pins its placement.
	Orch *daemon.Orchestrator

	row  protocol.Row
	stop func()
}

// Close stops the control plane and drains the engine of a member
// StartMember started.
func (m Member) Close() { m.stop() }

// StartMember builds one member of kind from its protocol row in this
// process and starts it serving as the kind's daemon does with -nictier
// and -policy static-host: on its own loopback UDP engine, its placement
// held on the host until the fleet pins it. A kvs member serves an empty
// store, a dns member the demo zone, a paxos member acceptor 0 with no
// learners, so it sends nothing but its replies.
func StartMember(kind, name string) (Member, error) {
	row, err := protocol.Lookup(kind)
	if err != nil {
		return Member{}, fmt.Errorf("fleet: %w", err)
	}
	// No -ctrl: the controller calls the orchestrator directly. The
	// static-host policy takes no crossover.
	f := daemon.Flags{EngineOptions: daemon.EngineOptions{Addr: "127.0.0.1:0"}, Row: row, Shards: row.Shards,
		Policy: "static-host", NICTier: true}
	eng, srv, err := f.Listen(name, protocol.Options{})
	if err != nil {
		return Member{}, fmt.Errorf("fleet: %s: %w", name, err)
	}
	d, err := f.Start(name, eng, srv.Tier)
	if err != nil {
		eng.Close()
		return Member{}, fmt.Errorf("fleet: %s: %w", name, err)
	}
	return Member{Name: name, Kind: kind, Data: eng.LocalAddr().String(), Orch: d.Orch, row: row, stop: d.Close}, nil
}

// StartMix starts n members, cycling through mix's kinds, and names each
// <kind>-<i>. On an error it closes the members it started.
func StartMix(mix []string, n int) ([]Member, error) {
	members := make([]Member, 0, n)
	for i := 0; i < n; i++ {
		kind := mix[i%len(mix)]
		m, err := StartMember(kind, fmt.Sprintf("%s-%d", kind, i/len(mix)))
		if err != nil {
			for _, m := range members {
				m.Close()
			}
			return nil, err
		}
		members = append(members, m)
	}
	return members, nil
}
