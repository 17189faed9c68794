package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"incod/internal/cluster"
	"incod/internal/trafficgen"
)

// WorkerResult is one member's finished load run.
type WorkerResult struct {
	Member string `json:"member"`
	// Report is the parsed -report file — the generator-side truth about
	// what load arrived and how it was answered (Bad, replies that failed
	// to decode, is the fleet's wrong-answer metric); nil when the worker
	// died before writing one.
	Report *trafficgen.Report `json:"report,omitempty"`
	// Err records a nonzero exit or unreadable report.
	Err string `json:"error,omitempty"`
}

// ProfileString converts a demand trace (modeled kpps over its native
// duration) into an incloadgen ramp profile replayed over wall, offered
// at modeled/rateScale req/s. segments bounds the profile's resolution
// (default 12 ramps).
func ProfileString(t cluster.LoadTrace, wall time.Duration, segments int, rateScale float64) string {
	if segments <= 0 {
		segments = 12
	}
	if rateScale <= 0 {
		rateScale = 1
	}
	pts := t.Sample(segments + 1)
	if len(pts) == 0 {
		return ""
	}
	if len(pts) == 1 {
		pts = append(pts, pts[0])
	}
	step := wall / time.Duration(len(pts)-1)
	if step <= 0 {
		step = time.Second
	}
	p := make(trafficgen.Profile, len(pts)-1)
	for i := range p {
		p[i] = trafficgen.Segment{Kind: "ramp", From: math.RoundToEven(pts[i] * 1000 / rateScale),
			To: math.RoundToEven(pts[i+1] * 1000 / rateScale), Dur: step.Round(time.Millisecond)}
	}
	return p.String()
}

// ReplayConfig parameterizes a fleet-wide trace replay.
type ReplayConfig struct {
	// Bin is the incloadgen executable path.
	Bin string
	// Wall is the compressed wall-clock duration each member's trace is
	// replayed over.
	Wall time.Duration
	// Segments is the ramp resolution per profile (default 12).
	Segments int
	// RateScale divides modeled trace kpps down to offered loopback
	// rates (the controller's RateScale multiplies back).
	RateScale float64
	// Dir receives per-member report and log files.
	Dir string
	// Sockets is the client socket count per worker (default 2).
	Sockets int
	// Logf receives progress lines; nil is silent.
	Logf func(format string, args ...any)
}

// Replay runs one incloadgen worker per member concurrently, each
// replaying its trace, and collects every report. The error is non-nil
// if any worker failed; results are returned regardless, in member
// order.
func Replay(ctx context.Context, cfg ReplayConfig, members []Member, traces map[string]cluster.LoadTrace) ([]WorkerResult, error) {
	if cfg.Segments <= 0 {
		cfg.Segments = 12
	}
	if cfg.RateScale <= 0 {
		cfg.RateScale = 1
	}
	if cfg.Sockets <= 0 {
		cfg.Sockets = 2
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	results := make([]WorkerResult, len(members))
	var wg sync.WaitGroup
	for i := range members {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runWorker(ctx, cfg, &members[i], traces[members[i].Name], logf)
		}(i)
	}
	wg.Wait()
	var firstErr error
	for _, r := range results {
		if r.Err != "" && firstErr == nil {
			firstErr = fmt.Errorf("fleet: worker %s: %s", r.Member, r.Err)
		}
	}
	return results, firstErr
}

func runWorker(ctx context.Context, cfg ReplayConfig, m *Member, trace cluster.LoadTrace,
	logf func(string, ...any)) WorkerResult {
	res := WorkerResult{Member: m.Name}
	if len(trace) == 0 {
		res.Err = "no trace"
		return res
	}
	if m.spec.Kind == "" {
		spec, err := LookupKind(m.Kind)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		m.spec = spec
	}
	profile := ProfileString(trace, cfg.Wall, cfg.Segments, cfg.RateScale)
	reportPath := filepath.Join(cfg.Dir, m.Name+".report.json")
	args := []string{
		"-proto", m.spec.Proto,
		"-target", m.Data,
		"-profile", profile,
		"-report", reportPath,
		"-sockets", fmt.Sprint(cfg.Sockets),
		"-quiet",
	}
	// The DNS demo zone holds 16 names; querying beyond it would turn
	// the replay into an NXDOMAIN benchmark.
	if m.spec.Proto == "dns" {
		args = append(args, "-keys", "16")
	}
	cmd := exec.CommandContext(ctx, cfg.Bin, args...)
	logPath := filepath.Join(cfg.Dir, m.Name+".loadgen.log")
	if logFile, err := os.Create(logPath); err == nil {
		defer logFile.Close()
		cmd.Stdout, cmd.Stderr = logFile, logFile
	}
	logf("fleet: replaying %s on %s (%d ramps over %v)", m.Name, m.Data, cfg.Segments, cfg.Wall)
	runErr := cmd.Run()
	if b, err := os.ReadFile(reportPath); err == nil {
		var rep trafficgen.Report
		if jerr := json.Unmarshal(b, &rep); jerr == nil {
			res.Report = &rep
		} else {
			res.Err = "bad report: " + jerr.Error()
		}
	}
	if runErr != nil && res.Err == "" {
		res.Err = runErr.Error()
		if res.Report != nil && res.Report.Error != "" {
			res.Err = res.Report.Error
		}
	}
	return res
}
