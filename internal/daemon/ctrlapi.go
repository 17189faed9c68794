package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"time"

	"incod/internal/core"
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
// unsupported methods.
func (o *Orchestrator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness, not liveness: 200 only once the installed probe
		// (the serving engine's Running) says the dataplane serves.
		// Fleet controllers gate trace replay on this instead of
		// sleeping an arbitrary spawn delay.
		if !o.Ready() {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]bool{"ready": false})
			return
		}
		writeJSON(w, map[string]bool{"ready": true})
	})
	mux.HandleFunc("GET /v1/services", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, o.Statuses())
	})
	mux.HandleFunc("GET /v1/services/{name}", func(w http.ResponseWriter, r *http.Request) {
		s, err := o.Status(r.PathValue("name"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, s)
	})
	mux.HandleFunc("GET /v1/services/{name}/thresholds", func(w http.ResponseWriter, r *http.Request) {
		t, err := o.Thresholds(r.PathValue("name"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, t)
	})
	mux.HandleFunc("POST /v1/services/{name}/thresholds", func(w http.ResponseWriter, r *http.Request) {
		var t Thresholds
		if err := json.NewDecoder(r.Body).Decode(&t); err != nil {
			writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
			return
		}
		got, err := o.SetThresholds(r.PathValue("name"), t)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, got)
	})
	mux.HandleFunc("GET /v1/dataplane", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, o.Dataplanes())
	})
	mux.HandleFunc("GET /v1/services/{name}/dataplane", func(w http.ResponseWriter, r *http.Request) {
		st, err := o.Dataplane(r.PathValue("name"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("POST /v1/services/{name}/placement", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		var req struct {
			Placement string `json:"placement"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
			return
		}
		if req.Placement == "auto" {
			if err := o.Unpin(name); err != nil {
				writeErr(w, err)
				return
			}
		} else {
			p, err := core.ParsePlacement(req.Placement)
			if err != nil {
				writeError(w, http.StatusBadRequest, err.Error())
				return
			}
			if err := o.Pin(name, p); err != nil {
				writeErr(w, err)
				return
			}
		}
		s, err := o.Status(name)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, s)
	})
	return mux
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
