package daemon

import (
	"context"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// gracefulStop drains the control server (bounded by a 2 s timeout) and
// stops the orchestrator. ctrl may be nil (control plane disabled).
func gracefulStop(name string, ctrl *CtrlServer, orch *Orchestrator) {
	if ctrl != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := ctrl.Shutdown(ctx); err != nil {
			log.Printf("%s: control plane shutdown: %v", name, err)
		}
	}
	orch.Close()
}

// OnShutdown installs the daemons' shared exit path: a background
// watcher that waits for SIGINT/SIGTERM or a control-plane serve
// failure. On a signal it runs gracefulStop then fn (e.g. closing the
// daemon's packet socket to unblock its read loop, letting main return
// 0). A control-plane failure is not a clean exit: after gracefulStop
// the process exits 1 so supervisors restart the daemon. ctrl may be
// nil.
func OnShutdown(name string, ctrl *CtrlServer, orch *Orchestrator, fn func()) {
	var ctrlErr <-chan error // nil channel blocks forever when disabled
	if ctrl != nil {
		ctrlErr = ctrl.Err()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sig:
			log.Printf("%s: %v, shutting down", name, s)
		case err := <-ctrlErr:
			log.Printf("%s: control plane failed: %v, exiting", name, err)
			gracefulStop(name, ctrl, orch)
			os.Exit(1)
		}
		gracefulStop(name, ctrl, orch)
		if fn != nil {
			fn()
		}
	}()
}
