package daemon

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"incod/internal/core"
	"incod/internal/dataplane"
)

// api is one daemon per service, each an orchestrator behind its own /v1
// server: kvs and dns on threshold policies, pinned on a static one.
type api map[string]apiDaemon

type apiDaemon struct {
	o   *Orchestrator
	url string // the server's base URL
}

func newAPI(t *testing.T) api {
	t.Helper()
	a := api{}
	for name, pol := range map[string]core.Policy{
		"kvs":    core.NewThresholdPolicy(core.DefaultNetworkConfig(100)),
		"dns":    core.NewThresholdPolicy(core.DefaultNetworkConfig(150)),
		"pinned": &core.StaticPolicy{Target: core.Host},
	} {
		o := NewOrchestrator(0)
		if _, err := o.Register(name, ServiceConfig{Policy: pol}); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(o.Handler())
		t.Cleanup(srv.Close)
		a[name] = apiDaemon{o, srv.URL}
	}
	return a
}

// svc is the URL of name's /v1 resource on name's own server.
func (a api) svc(name string) string { return a[name].url + "/v1/services/" + name }

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url, body string, v any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestV1ListServices(t *testing.T) {
	a := newAPI(t)
	a["kvs"].o.svc.count.Add(5)

	list := map[string][]ServiceStatus{}
	for name := range a {
		var l []ServiceStatus
		if code := getJSON(t, a[name].url+"/v1/services", &l); code != http.StatusOK {
			t.Fatalf("list %s -> %d", name, code)
		}
		if len(l) != 1 || l[0].Name != name {
			t.Fatalf("%s's daemon lists %+v, want its one service", name, l)
		}
		list[name] = l
	}
	kvs, pinned := list["kvs"][0], list["pinned"][0]
	if kvs.Requests != 5 || kvs.Placement != "host" || kvs.Policy != "threshold" {
		t.Errorf("kvs status = %+v", kvs)
	}
	// DefaultNetworkConfig(100) = crossover*1.1 (floating point).
	if th := kvs.Thresholds; th == nil || th.ToNetworkKpps < 109.9 || th.ToNetworkKpps > 110.1 {
		t.Errorf("kvs thresholds = %+v, want to-network ~110", kvs.Thresholds)
	}
	if pinned.Policy != "static-host" || pinned.Thresholds != nil {
		t.Errorf("static service must expose no thresholds: %+v", pinned)
	}
}

func TestV1GetSingleServiceAndUnknown404(t *testing.T) {
	a := newAPI(t)
	var s ServiceStatus
	if code := getJSON(t, a.svc("dns"), &s); code != http.StatusOK {
		t.Fatalf("get dns -> %d", code)
	}
	if s.Name != "dns" || s.Placement != "host" {
		t.Errorf("dns status = %+v", s)
	}
	srv := a["dns"].url + "/v1/services/"
	// Another daemon's service is as unknown here as one nobody runs.
	for _, name := range []string{"ghost", "kvs"} {
		if code := getJSON(t, srv+name, nil); code != http.StatusNotFound {
			t.Errorf("unknown service %s -> %d, want 404", name, code)
		}
		if code := getJSON(t, srv+name+"/thresholds", nil); code != http.StatusNotFound {
			t.Errorf("unknown service %s thresholds -> %d, want 404", name, code)
		}
		if code := postJSON(t, srv+name+"/placement", `{"placement":"host"}`, nil); code != http.StatusNotFound {
			t.Errorf("unknown service %s placement -> %d, want 404", name, code)
		}
	}
}

func TestV1ThresholdsRoundTrip(t *testing.T) {
	a := newAPI(t)

	// Partial update: only the up-threshold; the other side is kept.
	var got Thresholds
	if code := postJSON(t, a.svc("kvs")+"/thresholds", `{"to_network_kpps": 200}`, &got); code != http.StatusOK {
		t.Fatalf("post -> %d", code)
	}
	if got.ToNetworkKpps != 200 || got.ToHostKpps != 70 || got.Clamped {
		t.Errorf("thresholds = %+v, want 200/70 unclamped", got)
	}

	// GET reflects the change.
	var read Thresholds
	if code := getJSON(t, a.svc("kvs")+"/thresholds", &read); code != http.StatusOK || read.ToNetworkKpps != 200 {
		t.Errorf("read back %+v (code %d)", read, code)
	}
}

func TestV1ThresholdsClampReported(t *testing.T) {
	a := newAPI(t)
	var got Thresholds
	if code := postJSON(t, a.svc("kvs")+"/thresholds", `{"to_host_kpps": 500}`, &got); code != http.StatusOK {
		t.Fatalf("post -> %d", code)
	}
	if !got.Clamped || got.Note == "" {
		t.Errorf("hysteresis clamp must be reported: %+v", got)
	}
	if got.ToHostKpps >= got.ToNetworkKpps {
		t.Errorf("to-host %v must stay below to-network %v", got.ToHostKpps, got.ToNetworkKpps)
	}
}

func TestV1ThresholdsBadInput(t *testing.T) {
	a := newAPI(t)
	if code := postJSON(t, a.svc("kvs")+"/thresholds", `{"to_network_kpps": -5}`, nil); code != http.StatusBadRequest {
		t.Errorf("negative threshold -> %d, want 400", code)
	}
	if code := postJSON(t, a.svc("kvs")+"/thresholds", "not json", nil); code != http.StatusBadRequest {
		t.Errorf("bad JSON -> %d, want 400", code)
	}
	// NaN is not valid JSON either.
	if code := postJSON(t, a.svc("kvs")+"/thresholds", `{"to_host_kpps": NaN}`, nil); code != http.StatusBadRequest {
		t.Errorf("NaN -> %d, want 400", code)
	}
	// Thresholds on a policy without rate thresholds: conflict.
	if code := postJSON(t, a.svc("pinned")+"/thresholds", `{"to_network_kpps": 10}`, nil); code != http.StatusConflict {
		t.Errorf("thresholds on static policy -> %d, want 409", code)
	}
	if code := getJSON(t, a.svc("pinned")+"/thresholds", nil); code != http.StatusConflict {
		t.Errorf("get thresholds on static policy -> %d, want 409", code)
	}
}

// The power policy's to-host return rate is tunable over /v1; its
// to-network side triggers on watts + CPU, so setting a to-network rate
// is rejected with an explanatory 400.
func TestV1PowerPolicyThresholds(t *testing.T) {
	o := NewOrchestrator(0)
	if _, err := o.Register("kvs", ServiceConfig{
		Policy: core.NewPowerPolicy(core.DefaultHostConfig(70, 56)),
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	var got Thresholds
	if code := postJSON(t, srv.URL+"/v1/services/kvs/thresholds", `{"to_host_kpps": 30}`, &got); code != http.StatusOK {
		t.Fatalf("to-host update -> %d", code)
	}
	if got.ToHostKpps != 30 {
		t.Errorf("to-host = %v, want 30", got.ToHostKpps)
	}
	if code := postJSON(t, srv.URL+"/v1/services/kvs/thresholds", `{"to_network_kpps": 99}`, nil); code != http.StatusBadRequest {
		t.Errorf("to-network on power policy -> %d, want 400", code)
	}
}

func TestV1MethodNotAllowed(t *testing.T) {
	srv := newAPI(t)["kvs"]
	for _, tc := range []struct{ method, path string }{
		{http.MethodDelete, "/v1/services/kvs/thresholds"},
		{http.MethodDelete, "/v1/services"},
		{http.MethodGet, "/v1/services/kvs/placement"},
	} {
		req, _ := http.NewRequest(tc.method, srv.url+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s -> %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
	}
}

func TestV1ManualPlacementPin(t *testing.T) {
	a := newAPI(t)
	o, url := a["kvs"].o, a.svc("kvs")+"/placement"
	var s ServiceStatus
	if code := postJSON(t, url, `{"placement":"network"}`, &s); code != http.StatusOK {
		t.Fatalf("pin -> %d", code)
	}
	if s.Placement != "network" || s.Pinned != "network" {
		t.Errorf("after pin: %+v", s)
	}
	// The pin holds against the policy under zero load.
	m := o.svc
	now := time.Unix(0, 0)
	o.Tick(now)
	_ = drive(o, m, now, 0, 5*time.Second)
	if placement(t, o, "kvs") != "network" {
		t.Error("pin must hold against the policy")
	}
	// "auto" releases the pin.
	s = ServiceStatus{}
	if code := postJSON(t, url, `{"placement":"auto"}`, &s); code != http.StatusOK {
		t.Fatalf("auto -> %d", code)
	}
	if s.Pinned != "" {
		t.Errorf("after auto: %+v", s)
	}
	// Bad placement value.
	if code := postJSON(t, url, `{"placement":"fpga"}`, nil); code != http.StatusBadRequest {
		t.Errorf("bad placement -> %d, want 400", code)
	}
}

func TestServeCtrlLifecycle(t *testing.T) {
	o := newAPI(t)["kvs"].o
	// Bind errors surface synchronously instead of being swallowed.
	if _, err := ServeCtrl("256.0.0.1:99999", o.Handler()); err == nil {
		t.Fatal("bad address must return a bind error")
	}
	cs, err := ServeCtrl("127.0.0.1:0", o.Handler())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + cs.Addr().String() + "/v1/services")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("list over ServeCtrl -> %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := cs.Shutdown(ctx); err != nil {
		t.Errorf("graceful shutdown: %v", err)
	}
	select {
	case err := <-cs.Err():
		t.Errorf("unexpected serve error after shutdown: %v", err)
	default:
	}
}

// fakeDataplane is a canned DataplaneSource.
type fakeDataplane struct{ st dataplane.Stats }

func (f fakeDataplane) Snapshot() dataplane.Stats { return f.st }

func TestV1DataplaneStats(t *testing.T) {
	a := newAPI(t)
	o, srv := a["kvs"].o, a["kvs"].url
	want := dataplane.Stats{
		Shards: []dataplane.ShardStats{
			{Shard: 0, Received: 70, Handled: 70, Replies: 70},
			{Shard: 1, Received: 30, Handled: 29, Replies: 29, Dropped: 1},
		},
		Received: 100, Handled: 99, Replies: 99, Dropped: 1,
		RateKpps: 12.5,
		Handler:  map[string]uint64{"hits": 80, "misses": 19},
	}
	if err := o.AttachDataplane("kvs", fakeDataplane{st: want}); err != nil {
		t.Fatal(err)
	}
	if err := o.AttachDataplane("ghost", fakeDataplane{}); err == nil {
		t.Fatal("attaching to an unknown service should fail")
	}

	var got dataplane.Stats
	if code := getJSON(t, srv+"/v1/services/kvs/dataplane", &got); code != http.StatusOK {
		t.Fatalf("GET dataplane: %d", code)
	}
	if got.Handled != 99 || got.Dropped != 1 || len(got.Shards) != 2 ||
		got.Shards[1].Dropped != 1 || got.Handler["hits"] != 80 {
		t.Fatalf("dataplane stats = %+v", got)
	}

	// Services without an engine 404; unknown services 404.
	if code := getJSON(t, a.svc("dns")+"/dataplane", nil); code != http.StatusNotFound {
		t.Fatalf("no-dataplane service: %d, want 404", code)
	}
	if code := getJSON(t, srv+"/v1/services/ghost/dataplane", nil); code != http.StatusNotFound {
		t.Fatalf("unknown service: %d, want 404", code)
	}

	// The all-engines view keys the one engine by its service's name,
	// and is empty on a daemon without one.
	for name, want := range map[string]int{"kvs": 1, "dns": 0} {
		var all map[string]dataplane.Stats
		if code := getJSON(t, a[name].url+"/v1/dataplane", &all); code != http.StatusOK {
			t.Fatalf("GET %s's /v1/dataplane: %d", name, code)
		}
		if len(all) != want || want == 1 && all["kvs"].Received != 100 {
			t.Fatalf("%s's dataplanes = %+v", name, all)
		}
	}
}

func TestUseCounterFeedsOrchestrator(t *testing.T) {
	o := NewOrchestrator(0)
	m, err := o.Register("kvs", ServiceConfig{
		Policy: core.NewThresholdPolicy(core.DefaultNetworkConfig(100)),
	})
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	m.UseCounter(func() uint64 { return total })

	now := time.Now()
	o.Tick(now)
	total = 50_000 // 50k requests in 500ms = 100 kpps
	o.Tick(now.Add(500 * time.Millisecond))

	st, err := o.Status("kvs")
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 50_000 {
		t.Fatalf("Requests = %d, want 50000 (external counter ignored)", st.Requests)
	}
	if st.WindowKpps < 99 || st.WindowKpps > 101 {
		t.Fatalf("WindowKpps = %v, want ~100", st.WindowKpps)
	}
	// With no external counter wired the service's own count is read.
	o2 := NewOrchestrator(0)
	m2, _ := o2.Register("raw", ServiceConfig{})
	m2.count.Add(1)
	if st, _ := o2.Status("raw"); st.Requests != 1 {
		t.Fatalf("raw Requests = %d, want 1", st.Requests)
	}
}

func TestV1HealthzFollowsReadiness(t *testing.T) {
	kvs := newAPI(t)["kvs"]
	o, srv := kvs.o, kvs.url

	// No probe installed: always ready.
	if code := getJSON(t, srv+"/v1/healthz", nil); code != http.StatusOK {
		t.Fatalf("default healthz = %d, want 200", code)
	}

	// With a probe (the daemons wire the engine's Running), the endpoint
	// tracks it: 503 before the dataplane serves, 200 while it does, and
	// 503 again once shutdown begins.
	serving := false
	o.SetReady(func() bool { return serving })
	var body map[string]bool
	resp, err := http.Get(srv + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || body["ready"] {
		t.Fatalf("pre-serve healthz = %d %v, want 503 ready=false", resp.StatusCode, body)
	}

	serving = true
	if code := getJSON(t, srv+"/v1/healthz", &body); code != http.StatusOK || !body["ready"] {
		t.Fatalf("serving healthz = %d %v, want 200 ready=true", code, body)
	}

	serving = false // engine closing
	if code := getJSON(t, srv+"/v1/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("closing healthz = %d, want 503", code)
	}

	// Clearing the probe restores the always-ready default.
	o.SetReady(nil)
	if code := getJSON(t, srv+"/v1/healthz", nil); code != http.StatusOK {
		t.Fatalf("cleared-probe healthz = %d, want 200", code)
	}
}
