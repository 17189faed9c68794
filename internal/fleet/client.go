package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"incod/internal/daemon"
	"incod/internal/dataplane"
)

// Retry policy for one logical call: a transient failure (transport error
// or 5xx) is retried with capped exponential backoff and full jitter; a
// 4xx is the daemon telling us the request itself is wrong and fails
// fast. Every attempt gets its own bounded sub-context, so one wedged
// member costs at most attempts×timeout, never the whole fleet tick.
const (
	retryAttempts  = 4
	retryBase      = 50 * time.Millisecond
	retryCap       = time.Second
	attemptTimeout = 2 * time.Second
)

// Client speaks one daemon's /v1 control API — the fleet-side counterpart
// of daemon.Orchestrator's Handler. All methods take a context so an
// aggressive polling loop can bound a slow member instead of wedging the
// fleet tick.
type Client struct {
	base string // "http://host:port"
	http *http.Client

	// retries counts extra attempts spent on transient failures over the
	// client's lifetime (0 on an all-first-try history).
	retries atomic.Uint64
}

// NewClient returns a client for the control API at hostport (no scheme).
func NewClient(hostport string) *Client {
	// No global http.Client timeout: deadlines are per attempt, derived
	// from the caller's context (or attemptTimeout when it has none), so
	// a retried call is never starved by time the first attempt burned.
	return &Client{base: "http://" + hostport, http: &http.Client{}}
}

// Retries reports lifetime retry attempts spent on transient failures.
func (c *Client) Retries() uint64 { return c.retries.Load() }

// do runs one logical call through the retry policy. body is re-read per
// attempt, so a request interrupted mid-send retries cleanly.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var lastErr error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			if !sleepCtx(ctx, retryDelay(attempt)) {
				return lastErr
			}
		}
		err, transient := c.attempt(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !transient || ctx.Err() != nil {
			return err
		}
	}
	return lastErr
}

// attempt performs a single HTTP round trip. The second return reports
// whether the failure is transient (worth retrying).
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, out any) (error, bool) {
	actx := ctx
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, attemptTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
	if err != nil {
		return err, false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// Connection refused, reset, timeout: the member may be mid-restart.
		return err, true
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(path, resp), resp.StatusCode >= 500
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	return json.NewDecoder(resp.Body).Decode(out), false
}

// retryDelay is capped exponential backoff with full jitter: a uniform
// draw over (0, base·2^(attempt-1)] capped at retryCap, so a fleet of
// clients retrying against one recovering daemon doesn't thunder in step.
func retryDelay(attempt int) time.Duration {
	d := retryBase << (attempt - 1)
	if d > retryCap {
		d = retryCap
	}
	return time.Duration(rand.Int63n(int64(d))) + 1
}

// sleepCtx sleeps for d, reporting false if ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, nil, out)
}

func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, path, body, out)
}

// apiError surfaces the server's JSON {"error": ...} payload when present.
func apiError(path string, resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s (HTTP %d)", path, e.Error, resp.StatusCode)
	}
	return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
}

// Healthy reports whether GET /v1/healthz answers 200 — i.e. the daemon's
// dataplane is serving. Transport errors and 503 both read as not ready.
// A probe is a point-in-time question, so it deliberately does not retry;
// callers like WaitHealthy poll it on their own schedule.
func (c *Client) Healthy(ctx context.Context) bool {
	actx := ctx
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, attemptTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(actx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// Service snapshots one service's status.
func (c *Client) Service(ctx context.Context, name string) (daemon.ServiceStatus, error) {
	var out daemon.ServiceStatus
	err := c.get(ctx, "/v1/services/"+name, &out)
	return out, err
}

// Dataplane snapshots the serving engine attached to name.
func (c *Client) Dataplane(ctx context.Context, name string) (dataplane.Stats, error) {
	var out dataplane.Stats
	err := c.get(ctx, "/v1/services/"+name+"/dataplane", &out)
	return out, err
}

// Pin pins name's placement ("host" | "network" | "auto") and returns the
// resulting status. This is how the fleet budget overrides each daemon's
// local policy.
func (c *Client) Pin(ctx context.Context, name, placement string) (daemon.ServiceStatus, error) {
	var out daemon.ServiceStatus
	err := c.post(ctx, "/v1/services/"+name+"/placement",
		map[string]string{"placement": placement}, &out)
	return out, err
}
