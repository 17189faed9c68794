package scenario

import (
	"strings"
	"testing"
)

func TestParseValidation(t *testing.T) {
	cases := []struct {
		json string
		ok   bool
		// field, when set, is what the error must name.
		field string
	}{
		{`{"app":"kvs","profile":[{"duration_s":1,"kpps":10}]}`, true, ""},
		{`{"app":"nope","profile":[{"duration_s":1,"kpps":10}]}`, false, "app"},
		{`{"app":"kvs","profile":[]}`, false, ""},
		{`{"app":"kvs","profile":[{"duration_s":-1,"kpps":10}]}`, false, ""},
		{`{"app":"kvs","controller":"network","profile":[{"duration_s":1,"kpps":1}]}`, false, ""}, // no such key
		{`{"app":"kvs","strategy":"bogus","profile":[{"duration_s":1,"kpps":1}]}`, false, "strategy"},
		{`{"app":"kvs","strategy":"keep-warm","profile":[{"duration_s":1,"kpps":1}]}`, true, ""},
		{`{"app":"dns","strategy":"keep-warm","profile":[{"duration_s":1,"kpps":1}]}`, false, "strategy"},
		{`{"app":"paxos","strategy":"partial-reconfig","profile":[{"duration_s":1,"kpps":1}]}`, false, "strategy"},
		{`{"app":"kvs","policy":"threshold","profile":[{"duration_s":1,"kpps":1}]}`, true, ""},
		{`{"app":"kvs","policy":"quantum","profile":[{"duration_s":1,"kpps":1}]}`, false, ""},
		{`{"app":"kvs","policy":"static-host","start":"network","profile":[{"duration_s":1,"kpps":1}]}`, true, ""},
		{`{"app":"kvs","start":"Network","profile":[{"duration_s":1,"kpps":1}]}`, false, "start"},
		{`{"app":"dns","start":"netwrok","profile":[{"duration_s":1,"kpps":1}]}`, false, "start"},
		{`not json`, false, ""},
		{`{"app":"kvs","profile":[{"duration_s":1,"kpps":10}]} {}`, false, ""},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.json))
		if (err == nil) != tc.ok {
			t.Errorf("Parse(%s) err = %v, ok = %v", tc.json, err, tc.ok)
		}
		if err != nil && tc.field != "" && !strings.Contains(err.Error(), tc.field) {
			t.Errorf("Parse(%s) err = %v: want it to name %q", tc.json, err, tc.field)
		}
	}
}

func TestParseDefaults(t *testing.T) {
	s, err := Parse([]byte(`{"app":"dns","profile":[{"duration_s":1,"kpps":10}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 1 || s.SampleMs != 500 || s.Keys != 1000 || s.CrossoverKpps != 150 {
		t.Errorf("defaults = %+v", s)
	}
}

func TestRunKVSWithNetworkController(t *testing.T) {
	res, err := Run(Scenario{
		App:      "kvs",
		Policy:   "threshold",
		SampleMs: 500,
		Keys:     200,
		Profile: []Segment{
			{DurationS: 2, Kpps: 10},
			{DurationS: 4, Kpps: 200},
			{DurationS: 4, Kpps: 10},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 20 {
		t.Fatalf("samples = %d, want 20", len(res.Samples))
	}
	// The controller must shift out under the 200 kpps plateau and back.
	if len(res.Transitions) < 2 {
		t.Fatalf("transitions = %v, want out and back", res.Transitions)
	}
	sawNetwork := false
	for _, s := range res.Samples {
		if s.Placement == "network" {
			sawNetwork = true
		}
	}
	if !sawNetwork {
		t.Error("timeline never shows the network placement")
	}
	if res.Samples[len(res.Samples)-1].Placement != "host" {
		t.Error("should end back on the host")
	}
	if res.ServedFrac < 0.95 {
		t.Errorf("served fraction = %v, want ~1", res.ServedFrac)
	}
	if res.TotalKWh <= 0 {
		t.Error("no energy accounted")
	}
}

func TestRunDNSStatic(t *testing.T) {
	res, err := Run(Scenario{
		App:   "dns",
		Start: "network",
		Keys:  50,
		Profile: []Segment{
			{DurationS: 2, Kpps: 50},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Samples {
		if s.Placement != "network" {
			t.Fatalf("static network placement drifted: %+v", s)
		}
	}
	// Hardware latency class.
	last := res.Samples[len(res.Samples)-1]
	if last.P50Us > 5 {
		t.Errorf("p50 = %vµs, want hardware class", last.P50Us)
	}
}

func TestRunPaxos(t *testing.T) {
	res, err := Run(Scenario{
		App:    "paxos",
		Policy: "threshold",
		// Threshold low so the 8 kpps plateau triggers a leader shift.
		CrossoverKpps: 3,
		Profile: []Segment{
			{DurationS: 2, Kpps: 1},
			{DurationS: 4, Kpps: 8},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transitions) == 0 {
		t.Fatal("paxos leader never shifted")
	}
	if res.Samples[len(res.Samples)-1].Placement != "network" {
		t.Error("leader should end in the network")
	}
	if res.ServedFrac < 0.9 {
		t.Errorf("served = %v", res.ServedFrac)
	}
}

// Every named policy drives the daemons' decision code:
// "threshold" reproduces the network-controlled shift, "static-network"
// pins the service in hardware regardless of load.
func TestRunWithNamedPolicy(t *testing.T) {
	res, err := Run(Scenario{
		App:    "kvs",
		Policy: "threshold",
		Keys:   200,
		Profile: []Segment{
			{DurationS: 2, Kpps: 10},
			{DurationS: 4, Kpps: 200},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transitions) == 0 {
		t.Fatal("threshold policy never shifted")
	}
	if res.Samples[len(res.Samples)-1].Placement != "network" {
		t.Error("should end offloaded under sustained load")
	}

	res, err = Run(Scenario{
		App:    "kvs",
		Policy: "static-network",
		Keys:   50,
		Profile: []Segment{
			{DurationS: 2, Kpps: 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Samples {
		if s.Placement != "network" {
			t.Fatalf("static-network policy drifted: %+v", s)
		}
	}
}

func TestCSVOutput(t *testing.T) {
	res := &Result{
		Samples:     []Sample{{TMs: 500, Offered: 10, Served: 9.5, P50Us: 14, PowerW: 41.2, Placement: "host"}},
		Transitions: []string{"1s -> network (x)"},
		TotalKWh:    0.001,
		ServedFrac:  0.99,
	}
	out := res.CSV()
	for _, want := range []string{"t_ms,offered_kpps", "500,10,9.5,14,41.2,host", "# transition: 1s -> network", "served 99.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}
