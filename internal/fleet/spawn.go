package fleet

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// proc is one spawned daemon process under fleet supervision.
type proc struct {
	name string
	cmd  *exec.Cmd
}

// Spawner launches and reaps local daemon instances for the fleet.
type Spawner struct {
	// BinDir is where the daemon executables live (inckvsd, incdnsd,
	// incpaxosd).
	BinDir string
	// Dir receives per-member daemon logs.
	Dir string
	// Logf receives progress lines; nil is silent.
	Logf func(format string, args ...any)

	procs []proc
}

func (s *Spawner) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// freePort reserves an OS-assigned port of the given network on loopback
// and immediately releases it. The tiny claim/bind race is acceptable
// for a single-host smoke fleet.
func freePort(network string) (int, error) {
	switch network {
	case "udp":
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer pc.Close()
		return pc.LocalAddr().(*net.UDPAddr).Port, nil
	default:
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer l.Close()
		return l.Addr().(*net.TCPAddr).Port, nil
	}
}

// Spawn launches one daemon of the given kind as member name, on fresh
// loopback ports, with its NIC tier attached and placement held by a
// static-host policy until the fleet pins it. It does not wait for
// readiness; use WaitHealthy.
func (s *Spawner) Spawn(kind, name string) (Member, error) {
	spec, err := LookupKind(kind)
	if err != nil {
		return Member{}, err
	}
	dataPort, err := freePort("udp")
	if err != nil {
		return Member{}, fmt.Errorf("fleet: reserve data port: %w", err)
	}
	ctrlPort, err := freePort("tcp")
	if err != nil {
		return Member{}, fmt.Errorf("fleet: reserve ctrl port: %w", err)
	}
	m := Member{
		Name: name,
		Kind: kind,
		Ctrl: fmt.Sprintf("127.0.0.1:%d", ctrlPort),
		Data: fmt.Sprintf("127.0.0.1:%d", dataPort),
		spec: spec,
	}
	args := []string{
		"-addr", m.Data,
		"-ctrl", m.Ctrl,
		"-nictier",
		// The fleet owns placement: a local static-host policy keeps the
		// member dark until a budget pin overrides it.
		"-policy", "static-host",
	}
	if kind == "paxos" {
		args = append(args, "-role", "acceptor", "-id", "0")
	}
	cmd := exec.Command(filepath.Join(s.BinDir, spec.Binary), args...)
	cmd.SysProcAttr = sysProcAttr()
	if s.Dir != "" {
		// A started daemon writes through its own copy of the descriptor.
		if f, err := os.Create(filepath.Join(s.Dir, name+".daemon.log")); err == nil {
			defer f.Close()
			cmd.Stdout, cmd.Stderr = f, f
		}
	}
	if err := cmd.Start(); err != nil {
		return Member{}, fmt.Errorf("fleet: start %s (%s): %w", name, spec.Binary, err)
	}
	s.procs = append(s.procs, proc{name, cmd})
	s.logf("fleet: spawned %s (%s) data=%s ctrl=%s pid=%d",
		name, spec.Binary, m.Data, m.Ctrl, cmd.Process.Pid)
	return m, nil
}

// SpawnMix launches n members, cycling through mix's distinct kinds, and
// names each <kind>-<i>.
func (s *Spawner) SpawnMix(mix []string, n int) ([]Member, error) {
	members := make([]Member, 0, n)
	for i := 0; i < n; i++ {
		kind := mix[i%len(mix)]
		m, err := s.Spawn(kind, fmt.Sprintf("%s-%d", kind, i/len(mix)))
		if err != nil {
			s.Stop(5 * time.Second)
			return nil, err
		}
		members = append(members, m)
	}
	return members, nil
}

// WaitHealthy blocks until every member's /v1/healthz answers 200 — the
// dataplane engine is serving — or the deadline passes. The probe cadence
// backs off exponentially (10ms doubling to a 500ms cap) per member, so a
// fast boot is noticed within milliseconds while a slow one isn't hammered.
func WaitHealthy(ctx context.Context, members []Member, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i := range members {
		m := &members[i]
		if m.client == nil {
			m.client = NewClient(m.Ctrl)
		}
		probe := 10 * time.Millisecond
		for {
			hctx, cancel := context.WithTimeout(ctx, time.Second)
			ok := m.client.Healthy(hctx)
			cancel()
			if ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("fleet: %s (%s) not healthy after %v", m.Name, m.Ctrl, timeout)
			}
			if !sleepCtx(ctx, probe) {
				return ctx.Err()
			}
			if probe *= 2; probe > 500*time.Millisecond {
				probe = 500 * time.Millisecond
			}
		}
	}
	return nil
}

// Stop terminates every spawned daemon (SIGTERM, then SIGKILL after
// grace) and reaps them.
func (s *Spawner) Stop(grace time.Duration) {
	for _, p := range s.procs {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range s.procs {
		done := make(chan struct{})
		go func() {
			_ = p.cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(grace):
			_ = p.cmd.Process.Kill()
			<-done
		}
		s.logf("fleet: stopped %s", p.name)
	}
	s.procs = nil
}
