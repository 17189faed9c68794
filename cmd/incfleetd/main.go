// Command incfleetd is the paper's §6 datacenter argument run live: a
// fleet controller that supervises N daemon instances (inckvsd, incdnsd,
// incpaxosd acceptors) over their /v1 APIs, enforces a global offload
// budget of K lit NIC tiers, replays a day of demand as real UDP traffic
// from load generators in its own process, and writes the measured
// fleet-wide day-saving figures to FLEET_6.json.
//
// One command reproduces the curve end to end on loopback, spawning the
// daemons from the directory incfleetd sits in (or -bin):
//
//	incfleetd -n 10 -k 3 -wall 45s -report FLEET_6.json -assert
//
// or adopt an already-running fleet:
//
//	incfleetd -members 'kvs=127.0.0.1:8080=127.0.0.1:11211,dns=127.0.0.1:8081=127.0.0.1:5353'
//
// The day is fixed: members rotate kvs, dns, paxos; each replays its own
// seeded realization of the rack-mixed 24h trace between 30 and 300
// modeled kpps. Loopback cannot offer datacenter rates, so -scale maps
// between them: the replayer offers trace/scale req/s and the energy
// model multiplies the measured rates back. -wall compresses the 24h
// trace; the report extrapolates the integrated energy to kWh/day.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"incod/internal/cluster"
	"incod/internal/fleet"
)

// The §6 day every run replays.
var dayMix = []string{"kvs", "dns", "paxos"}

const (
	// dayTrace is the demand volatility of every member's day.
	dayTrace = cluster.RackMixed
	// dayNight and dayPeak bound each member's modeled load (kpps).
	dayNight, dayPeak = 30, 300
	// daySeed seeds the members' trace realizations.
	daySeed = 6
)

func main() {
	n := flag.Int("n", 10, "fleet size when spawning")
	k := flag.Int("k", 3, "global budget: max simultaneously lit offload tiers")
	membersSpec := flag.String("members", "",
		"adopt running daemons instead of spawning: comma-separated kind=ctrlAddr=dataAddr entries")
	bin := flag.String("bin", "", "directory holding the daemon binaries (default: incfleetd's own)")
	wall := flag.Duration("wall", 45*time.Second, "wall-clock window the 24h trace is compressed into")
	scale := flag.Float64("scale", 20, "rate scale: modeled kpps = offered loopback kpps * scale")
	period := flag.Duration("period", 500*time.Millisecond, "controller planning tick")
	hold := flag.Int("hold", 2, "scheduler hold ticks before acting")
	listen := flag.String("listen", "127.0.0.1:0", "HTTP address for GET /v1/fleet; empty disables")
	dir := flag.String("dir", "", "output directory for the spawned daemons' logs (default: a temp dir)")
	reportPath := flag.String("report", "FLEET_6.json", "write the run report here")
	doAssert := flag.Bool("assert", false, "exit nonzero unless the run reproduces the fleet claims")
	flag.Parse()

	if err := run(*n, *k, *membersSpec, *bin, *wall, *scale, *period, *hold,
		*listen, *dir, *reportPath, *doAssert); err != nil {
		log.Fatalf("incfleetd: %v", err)
	}
}

func run(n, k int, membersSpec, bin string, wall time.Duration, scale float64,
	period time.Duration, hold int, listen, dir, reportPath string, doAssert bool) error {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// Assemble the roster: adopt a running fleet or spawn a fresh one.
	var members []fleet.Member
	var err error
	if membersSpec != "" {
		if members, err = parseMembers(membersSpec); err != nil {
			return err
		}
	} else {
		if bin == "" {
			bin = "."
			if exe, err := os.Executable(); err == nil {
				bin = filepath.Dir(exe)
			}
		}
		if dir == "" {
			if dir, err = os.MkdirTemp("", "incfleetd-*"); err != nil {
				return err
			}
			log.Printf("incfleetd: daemon logs under %s", dir)
		} else if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		sp := &fleet.Spawner{BinDir: bin, Dir: dir, Logf: log.Printf}
		defer sp.Stop(5 * time.Second)
		if members, err = sp.SpawnMix(dayMix, n); err != nil {
			return err
		}
	}
	if err := fleet.WaitHealthy(ctx, members, 30*time.Second); err != nil {
		return err
	}
	log.Printf("incfleetd: %d members healthy", len(members))

	sched := fleet.DefaultSchedulerConfig(k)
	if hold > 0 {
		sched.Hold = hold
	}
	wallScale := (24 * time.Hour).Seconds() / wall.Seconds()
	ctrl, err := fleet.NewController(fleet.Config{
		Members:   members,
		Sched:     sched,
		Period:    period,
		RateScale: scale,
		WallScale: wallScale,
	})
	if err != nil {
		return err
	}
	if err := ctrl.AdoptAll(ctx); err != nil {
		return err
	}
	log.Printf("incfleetd: fleet adopted dark (k=%d, rate scale %.0fx, wall scale %.0fx)",
		k, scale, wallScale)

	if listen != "" {
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			return fmt.Errorf("listen %s: %w", listen, err)
		}
		srv := &http.Server{Handler: ctrl.Handler()}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		log.Printf("incfleetd: GET http://%s/v1/fleet", ln.Addr())
	}

	runCtx, stopCtrl := context.WithCancel(ctx)
	defer stopCtrl()
	go ctrl.Run(runCtx)

	// Per-member day traces: the same diurnal envelope, each member's
	// own volatility realization.
	rng := rand.New(rand.NewSource(daySeed))
	traces := make(map[string]cluster.LoadTrace, len(members))
	for _, m := range members {
		memberRng := rand.New(rand.NewSource(rng.Int63()))
		traces[m.Name] = cluster.DynamoLoad(memberRng, dayTrace, dayNight, dayPeak, 24*3600)
	}

	log.Printf("incfleetd: replaying 24h of demand over %v (%d members, %d-%d modeled kpps)",
		wall, len(members), dayNight, dayPeak)
	workers, replayErr := fleet.Replay(ctx, fleet.ReplayConfig{
		Wall:      wall,
		RateScale: scale,
		Logf:      log.Printf,
	}, members, traces)

	// One final tick so the post-replay state lands in the account,
	// then freeze the controller.
	ctrl.Tick(ctx)
	stopCtrl()

	rep := fleet.BuildReport(ctrl.Snapshot(), ctrl.Curve(), workers)
	if err := rep.WriteFile(reportPath); err != nil {
		return fmt.Errorf("write %s: %w", reportPath, err)
	}
	log.Printf("incfleetd: report -> %s", reportPath)
	log.Printf("incfleetd: lit max %d/%d, %d shifts, %d budget violations, %d concurrent shifts max",
		rep.Snapshot.MaxLit, rep.K, rep.Snapshot.Shifts,
		rep.Snapshot.BudgetViolations, rep.Snapshot.ConcurrentShiftsMax)
	log.Printf("incfleetd: traffic sent %d, answered %d, wrong %d",
		rep.SentTotal, rep.AnsweredTotal, rep.WrongAnswers)
	log.Printf("incfleetd: day energy: software-only %.3f kWh, on-demand %.3f kWh, saved %.3f kWh (%.1f%%)",
		rep.SoftwareOnlyKWhDay, rep.OnDemandKWhDay, rep.SavedKWhDay, rep.SavedPct)

	if replayErr != nil {
		return replayErr
	}
	if doAssert {
		if err := rep.Check(); err != nil {
			return err
		}
		log.Printf("incfleetd: all fleet assertions held")
	}
	return nil
}

// parseMembers parses the adopt-mode roster: kind=ctrlAddr=dataAddr per
// entry, comma-separated.
func parseMembers(spec string) ([]fleet.Member, error) {
	var out []fleet.Member
	perKind := make(map[string]int)
	for _, entry := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(entry), "=")
		if len(fields) != 3 {
			return nil, fmt.Errorf("member %q: want kind=ctrlAddr=dataAddr", entry)
		}
		kind := fields[0]
		name := fmt.Sprintf("%s-%d", kind, perKind[kind])
		perKind[kind]++
		out = append(out, fleet.Member{Name: name, Kind: kind, Ctrl: fields[1], Data: fields[2]})
	}
	return out, nil
}
