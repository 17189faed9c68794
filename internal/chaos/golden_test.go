package chaos

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/trace_hashes.golden from this build")

// Every property's trace hash for seeds 0-99, in full and quick mode,
// is what testdata/trace_hashes.golden holds: a change to how a stack is
// built, served or faulted that moves one packet moves a line here. A
// change meant to move the traces regenerates the file with -update and
// says why.
func TestTraceHashesMatchGolden(t *testing.T) {
	var out strings.Builder
	for _, quick := range []bool{false, true} {
		mode := "full"
		if quick {
			mode = "quick"
		}
		for seed := int64(0); seed < 100; seed++ {
			for _, p := range Properties() {
				hash, err := p.Run(seed, Config{Quick: quick})
				if err != nil {
					t.Errorf("%s %s seed=%d: %v", mode, p.Name, seed, err)
				}
				fmt.Fprintf(&out, "%s %s %d %016x\n", mode, p.Name, seed, hash)
			}
		}
	}

	const golden = "testdata/trace_hashes.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(wantLines); i++ {
		if got[i] != wantLines[i] {
			t.Fatalf("trace hashes differ from %s at line %d:\n got %s\nwant %s", golden, i+1, got[i], wantLines[i])
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("trace hashes: %d lines, %s holds %d", len(got), golden, len(wantLines))
	}
}
