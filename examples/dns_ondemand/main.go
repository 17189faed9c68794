// dns_ondemand runs the DNS case study under the network-controlled
// on-demand policy: a query ramp crosses the software/hardware power
// crossover, the classifier's controller shifts resolution into the Emu
// DNS pipeline (syncing the on-chip zone), and shifts back as load fades.
// It is a three-segment scenario (internal/scenario), the same one
// `incsim` would run from JSON.
//
// Run: go run ./examples/dns_ondemand
package main

import (
	"fmt"
	"log"

	"incod/internal/scenario"
)

func main() {
	// 20 -> 400 kpps, hold, back to 20.
	res, err := scenario.Run(scenario.Scenario{
		App:      "dns",
		Policy:   "threshold",
		Seed:     5,
		SampleMs: 1000,
		Profile: []scenario.Segment{
			{DurationS: 3, Kpps: 20},
			{DurationS: 5, Kpps: 400},
			{DurationS: 6, Kpps: 20},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.CSV())
}
