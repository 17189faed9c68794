package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"incod/internal/core"
	"incod/internal/daemon"
)

// newDaemon stands up a real orchestrator with one threshold-policy
// service behind its real /v1 handler, returning the fleet-side client.
func newDaemon(t *testing.T, service string) (*daemon.Orchestrator, *Client) {
	t.Helper()
	o := daemon.NewOrchestrator(0)
	if _, err := o.Register(service, daemon.ServiceConfig{
		Policy: core.NewThresholdPolicy(core.DefaultNetworkConfig(100)),
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(o.Handler())
	t.Cleanup(srv.Close)
	return o, NewClient(strings.TrimPrefix(srv.URL, "http://"))
}

func TestClientHealthzTracksReadiness(t *testing.T) {
	o, c := newDaemon(t, "kvs")
	ctx := context.Background()

	if !c.Healthy(ctx) {
		t.Fatal("no probe installed: want healthy")
	}
	serving := false
	o.SetReady(func() bool { return serving })
	if c.Healthy(ctx) {
		t.Fatal("engine not serving: want unhealthy")
	}
	serving = true
	if !c.Healthy(ctx) {
		t.Fatal("engine serving: want healthy")
	}
}

func TestClientHealthyFalseOnDeadServer(t *testing.T) {
	c := NewClient("127.0.0.1:1") // nothing listens there
	if c.Healthy(context.Background()) {
		t.Fatal("dead server reported healthy")
	}
}

func TestClientServicesAndPin(t *testing.T) {
	_, c := newDaemon(t, "kvs")
	ctx := context.Background()

	st, err := c.Service(ctx, "kvs")
	if err != nil || st.Placement != "host" {
		t.Fatalf("Service = %+v, %v", st, err)
	}

	st, err = c.Pin(ctx, "kvs", "network")
	if err != nil {
		t.Fatal(err)
	}
	if st.Placement != "network" || st.Pinned != "network" {
		t.Fatalf("after pin: %+v", st)
	}
	st, err = c.Pin(ctx, "kvs", "host")
	if err != nil || st.Placement != "host" {
		t.Fatalf("after unpin-to-host: %+v, %v", st, err)
	}
}

// flakyServer answers 5xx for the first fails requests, then delegates to
// ok. It returns the client and a counter of requests seen.
func flakyServer(t *testing.T, fails int, ok http.HandlerFunc) (*Client, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(fails) {
			http.Error(w, `{"error":"warming up"}`, http.StatusInternalServerError)
			return
		}
		ok(w, r)
	}))
	t.Cleanup(srv.Close)
	return NewClient(strings.TrimPrefix(srv.URL, "http://")), &calls
}

func TestClientRetriesTransient5xx(t *testing.T) {
	c, calls := flakyServer(t, 2, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"name":"kvs","placement":"host"}`))
	})
	st, err := c.Service(context.Background(), "kvs")
	if err != nil {
		t.Fatalf("call should survive two 500s: %v", err)
	}
	if st.Name != "kvs" {
		t.Fatalf("Service = %+v", st)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (two failures + success)", got)
	}
	if got := c.Retries(); got != 2 {
		t.Fatalf("Retries() = %d, want 2", got)
	}
}

func TestClientFailsFastOnPermanent4xx(t *testing.T) {
	_, c := newDaemon(t, "kvs")
	if _, err := c.Service(context.Background(), "nope"); err == nil {
		t.Fatal("404 must error")
	}
	if got := c.Retries(); got != 0 {
		t.Fatalf("4xx must not be retried, Retries() = %d", got)
	}
}

func TestClientRetriesExhaustTransportError(t *testing.T) {
	c := NewClient("127.0.0.1:1") // nothing listens there
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if _, err := c.Service(ctx, "kvs"); err == nil {
		t.Fatal("dead server must error")
	}
	if got := c.Retries(); got != retryAttempts-1 {
		t.Fatalf("Retries() = %d, want %d (all backed-off attempts)", got, retryAttempts-1)
	}
	// Backoff must have actually slept between attempts, but capped: well
	// under the sum of caps.
	if d := time.Since(start); d > 4*time.Second {
		t.Fatalf("retry loop took %v, backoff cap not honored", d)
	}
}

func TestClientRetryStopsOnCanceledContext(t *testing.T) {
	c := NewClient("127.0.0.1:1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Service(ctx, "kvs"); err == nil {
		t.Fatal("canceled context must error")
	}
	if got := c.Retries(); got > 1 {
		t.Fatalf("canceled context must stop the retry loop, Retries() = %d", got)
	}
}

func TestClientErrorsSurfaceServerMessage(t *testing.T) {
	_, c := newDaemon(t, "kvs")
	ctx := context.Background()

	if _, err := c.Service(ctx, "nope"); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown service error = %v, want HTTP 404 surfaced", err)
	}
	if _, err := c.Dataplane(ctx, "kvs"); err == nil {
		t.Fatal("no dataplane attached: want error")
	}
}
