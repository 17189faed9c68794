// Package trafficgen is the one load generator, the software stand-in
// for the paper's traffic sources (OSNT in §4, a mutilate client with the
// Facebook ETC distribution in §9.2, a proposer whose retry timeout is
// Figure 7's stall). An App knows one traffic kind's wire forms — how
// request n is encoded, which request a reply answers and with what
// verdict; Client is the core every run shares: ids, the pending table,
// latency, counters, the §9.2 retry and open- and closed-loop submission,
// single-threaded with time passed in; Profile is the offered-load
// schedule and Report the outcome. Two drivers run the core: Sockets
// (socket.go, set up by Open) on real UDP for incloadgen and the fleet's
// day replay, and
// simhost.Client on the simulated network for every figure, scenario and
// example. The key and value distributions (Zipf popularity, ETC sizes)
// live here too.
package trafficgen

import (
	"fmt"
	"math/rand"
)

// KeySampler yields keys with a configured popularity distribution.
type KeySampler struct {
	zipf *rand.Zipf
}

// NewZipfKeys samples from n keys with Zipf skew s (s > 1; the Facebook
// ETC pool is highly skewed — Atikoglu et al. report a small fraction of
// keys taking most accesses).
func NewZipfKeys(rng *rand.Rand, n uint64, s float64) *KeySampler {
	if n == 0 {
		n = 1
	}
	if s <= 1 {
		s = 1.01
	}
	return &KeySampler{zipf: rand.NewZipf(rng, s, 1, n-1)}
}

// Next returns the next key ("key-<i>").
func (k *KeySampler) Next() string { return fmt.Sprintf("key-%d", k.zipf.Uint64()) }

// NextIndex returns the next key index.
func (k *KeySampler) NextIndex() uint64 { return k.zipf.Uint64() }

// ETC models the Facebook ETC workload statistics used in §5.3 and §9.2:
// GET-dominated traffic over a large, skewed key pool with small values.
type ETC struct {
	Keys *KeySampler
	rng  *rand.Rand
}

// NewETC builds the workload over n keys.
func NewETC(rng *rand.Rand, n uint64) *ETC {
	return &ETC{Keys: NewZipfKeys(rng, n, 1.06), rng: rng}
}

// ValueSize draws a value size in bytes: ETC values are small (tens to a
// few hundred bytes), matching LaKe's 64 B value-chunk sizing (§5.3).
func (e *ETC) ValueSize() int {
	// Log-normal-ish: mostly 16-300 B with a thin tail to 1 KiB.
	v := int(e.rng.ExpFloat64() * 90)
	if v < 16 {
		v = 16
	}
	if v > 1024 {
		v = 1024
	}
	return v
}
