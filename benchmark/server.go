package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"incod/internal/daemon"
	"incod/internal/dataplane"
)

// server is one daemon under test: a child process confined to the
// server CPU set, its /v1 control API, and its /proc accounting. The
// traced twin is started through the same type — it is this binary
// re-executed — so every measurement below applies to both alike.
type server struct {
	w       *workloadSpec
	cmd     *exec.Cmd
	addr    string // UDP serving address
	ctrl    string // http://host:port
	stderr  *os.File
	http    *http.Client
	started time.Time
	bootMs  float64
	waitErr chan error
}

// freePort asks the kernel for an unused loopback port of the given
// network ("udp4" or "tcp4"), chosen afresh for every daemon start so
// concurrent or back-to-back runs never collide.
func freePort(network string) (int, error) {
	if network == "tcp4" {
		l, err := net.Listen(network, "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer l.Close()
		return l.Addr().(*net.TCPAddr).Port, nil
	}
	c, err := net.ListenPacket(network, "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return c.LocalAddr().(*net.UDPAddr).Port, nil
}

// buildDaemons compiles the three daemons from the checkout into binDir.
// The go build cache makes every call after the first a no-op check.
func buildDaemons(root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator),
		"./cmd/inckvsd", "./cmd/incdnsd", "./cmd/incpaxosd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the daemons in %s: %v\n%s", root, err, out)
	}
	return nil
}

// startServer execs argv confined to cpus with GOMAXPROCS=len(cpus) and
// waits until GET /v1/healthz answers 200. stderrPath receives the
// child's log. The affinity is inherited: this thread narrows itself to
// the server set for the duration of the fork.
func startServer(w *workloadSpec, argv []string, udpPort, ctrlPort int, cpus, back []int, stderrPath string) (*server, error) {
	logf, err := os.Create(stderrPath)
	if err != nil {
		return nil, err
	}
	s := &server{w: w, stderr: logf,
		addr:    fmt.Sprintf("127.0.0.1:%d", udpPort),
		ctrl:    fmt.Sprintf("http://127.0.0.1:%d", ctrlPort),
		http:    &http.Client{Timeout: 10 * time.Second},
		waitErr: make(chan error, 1),
	}
	s.cmd = exec.Command(argv[0], argv[1:]...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(len(cpus)))
	// Die with the harness even if it is SIGKILLed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

	// The fork happens on a thread narrowed to the server set, so the
	// child inherits the confinement. Pdeathsig fires when the forking
	// *thread* exits, so that thread stays locked to this goroutine —
	// blocked in Wait — for as long as the child lives.
	startErr := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		err := setAffinity(0, cpus)
		if err == nil {
			s.started = time.Now()
			err = s.cmd.Start()
			_ = setAffinity(0, back)
		}
		startErr <- err
		if err == nil {
			s.waitErr <- s.cmd.Wait()
		}
	}()
	if err := <-startErr; err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s on cpus %v: %w", argv[0], cpus, err)
	}
	registerChild(s.cmd.Process)

	got, err := allowedCPUs(strconv.Itoa(s.cmd.Process.Pid))
	if err != nil || !sameInts(got, cpus) {
		s.kill()
		return nil, fmt.Errorf("daemon is not confined to the server CPU set: want %v, got %v (%v)", cpus, got, err)
	}
	if err := s.waitHealthy(10 * time.Second); err != nil {
		s.kill()
		return nil, err
	}
	s.bootMs = float64(time.Since(s.started)) / 1e6
	return s, nil
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (s *server) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.waitErr:
			s.waitErr <- err
			return fmt.Errorf("daemon exited before it was healthy: %v", err)
		default:
		}
		resp, err := s.http.Get(s.ctrl + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return errors.New("daemon did not become healthy in " + limit.String())
}

// alive reports an error if the daemon has exited.
func (s *server) alive() error {
	select {
	case err := <-s.waitErr:
		s.waitErr <- err
		return fmt.Errorf("daemon died: %v", err)
	default:
		return nil
	}
}

// pin POSTs a manual placement and returns the round trip's wall time
// and the orchestrator's own last_shift_duration.
func (s *server) pin(placement string) (wall, shift time.Duration, err error) {
	body := bytes.NewReader([]byte(`{"placement":"` + placement + `"}`))
	start := time.Now()
	resp, err := s.http.Post(s.ctrl+"/v1/services/"+s.w.Service+"/placement", "application/json", body)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var st daemon.ServiceStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	wall = time.Since(start)
	if resp.StatusCode != http.StatusOK || derr != nil {
		return wall, 0, fmt.Errorf("pin %s: HTTP %d (%v)", placement, resp.StatusCode, derr)
	}
	if st.Placement != placement || st.LastError != "" {
		return wall, 0, fmt.Errorf("pin %s: daemon reports placement %q, error %q", placement, st.Placement, st.LastError)
	}
	if st.LastShiftDuration != "" {
		shift, _ = time.ParseDuration(st.LastShiftDuration)
	}
	return wall, shift, nil
}

// snapshot GETs the service's dataplane stats, timing the round trip.
func (s *server) snapshot() (dataplane.Stats, time.Duration, error) {
	var st dataplane.Stats
	start := time.Now()
	resp, err := s.http.Get(s.ctrl + "/v1/services/" + s.w.Service + "/dataplane")
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, time.Since(start), err
}

// cpuNs is the CPU time the daemon's threads have run, user and system,
// from the scheduler's per-thread nanosecond accounting. /proc/<pid>/stat
// carries the same quantity in 10 ms ticks, too coarse for a few seconds
// at 20 % of one core.
func (s *server) cpuNs() (int64, error) {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name(), "schedstat"))
		if err != nil {
			if os.IsNotExist(err) {
				continue // thread exited between the listing and the read
			}
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) < 1 {
			return 0, fmt.Errorf("unreadable schedstat %q", b)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return total, nil
}

// rssMB reads VmRSS from /proc/<pid>/status.
func (s *server) rssMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS")
}

// stop SIGTERMs the daemon and requires a clean exit.
func (s *server) stop() error {
	defer s.stderr.Close()
	defer unregisterChild(s.cmd.Process)
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM: %w", err)
	}
	select {
	case err := <-s.waitErr:
		if err != nil {
			return fmt.Errorf("daemon did not exit cleanly on SIGTERM: %w", err)
		}
		return nil
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.waitErr
		return errors.New("daemon ignored SIGTERM for 10 s; killed")
	}
}

// kill is the failure-path teardown: no courtesy, but it still waits.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.waitErr
	unregisterChild(s.cmd.Process)
	s.stderr.Close()
}
