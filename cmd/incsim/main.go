// Command incsim runs a JSON-defined what-if scenario through the
// deterministic simulator and prints the timeline as CSV (or JSON).
//
//	incsim -scenario s.json
//	echo '{"app":"kvs","policy":"threshold",
//	       "profile":[{"duration_s":2,"kpps":10},{"duration_s":5,"kpps":200}]}' | incsim
//
// See internal/scenario for the schema: application (kvs/dns/paxos),
// placement policy (threshold/power/static-host/static-network — the
// same policy code the live daemons run; none keeps the start
// placement), idle strategy, seed, and an offered-load profile.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"incod/internal/scenario"
)

func main() {
	path := flag.String("scenario", "", "scenario JSON file (default: stdin)")
	asJSON := flag.Bool("json", false, "emit the full result as JSON instead of CSV")
	flag.Parse()

	var data []byte
	var err error
	if *path == "" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(*path)
	}
	if err != nil {
		log.Fatalf("incsim: %v", err)
	}
	s, err := scenario.Parse(data)
	if err != nil {
		log.Fatalf("incsim: %v", err)
	}
	res, err := scenario.Run(s)
	if err != nil {
		log.Fatalf("incsim: %v", err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatalf("incsim: %v", err)
		}
		return
	}
	fmt.Print(res.CSV())
}
