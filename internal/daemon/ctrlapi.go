package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"incod/internal/core"
	"incod/internal/dataplane"
)

// Handler returns the versioned control-plane HTTP API — the role the
// P4Runtime/gRPC channel plays for a hardware deployment's controller:
//
//	GET  /v1/services                     -> [ServiceStatus] (the one
//	                                         service, once registered)
//	GET  /v1/services/{name}              -> ServiceStatus (placement,
//	                                         shifts, in-flight shifting
//	                                         flag, last shift duration,
//	                                         retry count, last error,
//	                                         transition log)
//	GET  /v1/services/{name}/thresholds   -> Thresholds
//	POST /v1/services/{name}/thresholds   <- Thresholds (partial updates;
//	                                         400 on invalid values, clamp
//	                                         reported in the response)
//	POST /v1/services/{name}/placement    <- {"placement": "host" |
//	                                         "network" | "auto"} (manual
//	                                         pin; "auto" returns control
//	                                         to the policy)
//	GET  /v1/dataplane                    -> {name: dataplane.Stats}
//	GET  /v1/services/{name}/dataplane    -> dataplane.Stats (per-shard
//	                                         serving-engine counters,
//	                                         rate, handler stats)
//
// Errors are JSON {"error": "..."} with 404 for unknown services or
// services without an attached dataplane, 400 for invalid input, 409 for
// threshold operations on a policy without rate thresholds, and 405 for
// unsupported methods. The {name} segment is resolved in one place,
// named: a name other than the registered service's answers 404 on
// every route, after a POST has checked its body, so a bad body answers
// 400 whatever the name.
func (o *Orchestrator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness, not liveness: 200 only once the installed probe
		// (the serving engine's Running) says the dataplane serves, so
		// a supervisor gates traffic on it instead of sleeping an
		// arbitrary start-up delay.
		if !o.Ready() {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]bool{"ready": false})
			return
		}
		writeJSON(w, map[string]bool{"ready": true})
	})
	mux.HandleFunc("GET /v1/services", func(w http.ResponseWriter, r *http.Request) {
		list := []ServiceStatus{}
		if s, err := o.Status(); err == nil {
			list = append(list, s)
		}
		writeJSON(w, list)
	})
	mux.HandleFunc("GET /v1/services/{name}", func(w http.ResponseWriter, r *http.Request) {
		if o.named(w, r) {
			writeResult(w, o.Status)
		}
	})
	mux.HandleFunc("GET /v1/services/{name}/thresholds", func(w http.ResponseWriter, r *http.Request) {
		if o.named(w, r) {
			writeResult(w, o.Thresholds)
		}
	})
	mux.HandleFunc("POST /v1/services/{name}/thresholds", func(w http.ResponseWriter, r *http.Request) {
		var t Thresholds
		if err := json.NewDecoder(r.Body).Decode(&t); err != nil {
			writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
			return
		}
		if o.named(w, r) {
			writeResult(w, func() (Thresholds, error) { return o.SetThresholds(t) })
		}
	})
	mux.HandleFunc("GET /v1/dataplane", func(w http.ResponseWriter, r *http.Request) {
		out := map[string]dataplane.Stats{}
		if st, err := o.Dataplane(); err == nil {
			out[o.serviceName()] = st
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("GET /v1/services/{name}/dataplane", func(w http.ResponseWriter, r *http.Request) {
		if o.named(w, r) {
			writeResult(w, o.Dataplane)
		}
	})
	mux.HandleFunc("POST /v1/services/{name}/placement", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Placement string `json:"placement"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
			return
		}
		pin := o.Unpin
		if req.Placement != "auto" {
			p, err := core.ParsePlacement(req.Placement)
			if err != nil {
				writeError(w, http.StatusBadRequest, err.Error())
				return
			}
			pin = func() error { return o.Pin(p) }
		}
		if !o.named(w, r) {
			return
		}
		if err := pin(); err != nil {
			writeErr(w, err)
			return
		}
		writeResult(w, o.Status)
	})
	return mux
}

// named resolves a route's {name} segment, after the route has
// validated its body: it reports whether name is the registered service,
// and answers 404 when it is not.
func (o *Orchestrator) named(w http.ResponseWriter, r *http.Request) bool {
	name := r.PathValue("name")
	if name != o.serviceName() {
		writeErr(w, fmt.Errorf("%w: %q", ErrUnknownService, name))
		return false
	}
	return true
}

// writeResult writes what the orchestrator call get returns, or its
// error.
func writeResult[T any](w http.ResponseWriter, get func() (T, error)) {
	v, err := get()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, v)
}

// writeErr maps orchestrator errors onto HTTP statuses.
func writeErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownService), errors.Is(err, ErrNoDataplane):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ErrNotTunable):
		writeError(w, http.StatusConflict, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// CtrlServer is a running control-plane HTTP server with a graceful
// shutdown path. Unlike a bare ListenAndServe goroutine, bind errors are
// returned synchronously from ServeCtrl and serve-time failures surface
// on Err.
type CtrlServer struct {
	srv  *http.Server
	addr net.Addr
	err  chan error
}

// ServeCtrl binds addr and serves h in the background. The returned
// error covers listen failures (bad address, port in use).
func ServeCtrl(addr string, h http.Handler) (*CtrlServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &CtrlServer{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		addr: ln.Addr(),
		err:  make(chan error, 1),
	}
	go func() {
		if err := c.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			c.err <- err
		}
	}()
	return c, nil
}

// Addr is the bound listen address (useful with ":0").
func (c *CtrlServer) Addr() net.Addr { return c.addr }

// Err delivers an asynchronous serve failure, if any.
func (c *CtrlServer) Err() <-chan error { return c.err }

// Shutdown gracefully stops the server, waiting for in-flight requests
// up to ctx's deadline.
func (c *CtrlServer) Shutdown(ctx context.Context) error { return c.srv.Shutdown(ctx) }
