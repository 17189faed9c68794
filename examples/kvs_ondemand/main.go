// kvs_ondemand reproduces the Figure 6 scenario interactively: an ETC
// memcached workload served in software, a background job (ChainerMN)
// heating up the host, and the §9.1 host controller shifting the KVS onto
// the LaKe card — then back when the background job ends. It is the
// figure's own run (internal/experiments) on a shorter day: 20 s, the
// job between t=4s and t=14s, 2000 keys.
//
// Run: go run ./examples/kvs_ondemand
package main

import (
	"fmt"
	"time"

	"incod/internal/experiments"
)

func main() {
	res := experiments.RunFig6(experiments.Fig6Params{
		Seed:        7,
		Keys:        2000,
		ChainerFrom: 4 * time.Second,
		ChainerTo:   14 * time.Second,
		Length:      20 * time.Second,
	})
	fmt.Println(res.Table.Render())
}
