package core

import (
	"fmt"
	"time"

	"incod/internal/paxos"
)

// PaxosService adapts a Paxos deployment: shifting runs the §9.2 leader
// election (ballot bump, sequence restart, forwarding-rule rewrite), with
// convergence via acceptor piggybacks, client retries and gap recovery.
type PaxosService struct {
	dep *paxos.Deployment
}

// NewPaxosService wraps dep.
func NewPaxosService(dep *paxos.Deployment) *PaxosService { return &PaxosService{dep: dep} }

// Name implements Service.
func (s *PaxosService) Name() string { return "paxos" }

// Placement implements Service.
func (s *PaxosService) Placement() Placement {
	if s.dep.CurrentLeader() == s.dep.HWLeader {
		return Network
	}
	return Host
}

// Shift implements Service. The leader election fails if the target
// leader is not provisioned.
func (s *PaxosService) Shift(to Placement) error {
	if to == s.Placement() {
		return nil
	}
	target := s.dep.SWLeader
	if to == Network {
		target = s.dep.HWLeader
	}
	if target == nil {
		return fmt.Errorf("paxos: no %s leader provisioned for election", to)
	}
	s.dep.ShiftLeader(target)
	return nil
}

// TransitionCost implements CostReporter. Figure 7: throughput stalls for
// roughly one client retry timeout while clients re-point at the new
// leader.
func (s *PaxosService) TransitionCost(Placement) TransitionCost {
	return TransitionCost{Duration: 100 * time.Millisecond,
		Note: "leader election; clients stall up to one retry timeout"}
}
