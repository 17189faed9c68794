// Package placement encodes §10 of the paper — "FPGA, SmartNIC or
// Switch?" — as an executable decision guide: a catalog of in-network
// computing platforms with the attributes the paper discusses (peak
// throughput, power, performance per watt, price, flexibility, failure
// blast radius, programming ease) and a ranking function for application
// requirements.
//
// Catalog anchors from §10:
//
//   - a switch ASIC provides the highest performance and performance per
//     watt, but costs "x10 or more" and has limited per-Gbps resources
//     and a vendor-fixed architecture;
//   - SmartNICs stay within the ~25 W PCIe envelope and reach millions of
//     operations per watt including external memory access;
//   - Azure's AccelNet FPGA SmartNIC draws 17-19 W standalone on a 40GE
//     board at close to 4 Mpps/W;
//   - SoC SmartNICs are the easiest to program but hit the resource wall
//     earliest;
//   - FPGAs have the poorest performance per watt but maximum flexibility
//     (any application, any interface or memory on a bespoke board).
package placement

import (
	"fmt"
	"sort"
)

// Platform describes one in-network computing target.
type Platform struct {
	Name string
	// PeakMpps is the application-message capacity.
	PeakMpps float64
	// Watts is the device's power draw at load.
	Watts float64
	// PriceUnits is a relative list-price proxy (NIC-class = 1).
	PriceUnits float64
	// Flexibility (0-10): what fraction of applications fit (§10: FPGA
	// can implement "almost every application"; switches have a
	// vendor-provided architecture "that may not fit all applications").
	Flexibility int
	// ProgrammingEase (0-10): SoC SmartNICs are "the easiest trajectory".
	ProgrammingEase int
	// ExternalMemory reports large off-chip state support.
	ExternalMemory bool
	// BlastRadius is how many nodes an in-device failure takes down
	// (1 for a NIC next to its host; a rack for a ToR switch, §10's
	// "implications of a switch failure").
	BlastRadius int
}

// PerfPerWatt returns Mpps per watt.
func (p Platform) PerfPerWatt() float64 {
	if p.Watts <= 0 {
		return 0
	}
	return p.PeakMpps / p.Watts
}

// Catalog returns the §10 platform set.
func Catalog() []Platform {
	return []Platform{
		{
			Name:     "NetFPGA SUME (P4xos)",
			PeakMpps: 10, Watts: 19.4, PriceUnits: 1,
			Flexibility: 10, ProgrammingEase: 4, ExternalMemory: true,
			BlastRadius: 1,
		},
		{
			Name:     "AccelNet-class FPGA SmartNIC",
			PeakMpps: 70, Watts: 18, PriceUnits: 1.2,
			Flexibility: 9, ProgrammingEase: 4, ExternalMemory: true,
			BlastRadius: 1,
		},
		{
			Name:     "ASIC SmartNIC",
			PeakMpps: 100, Watts: 25, PriceUnits: 1.5,
			Flexibility: 5, ProgrammingEase: 6, ExternalMemory: true,
			BlastRadius: 1,
		},
		{
			Name:     "SoC SmartNIC",
			PeakMpps: 30, Watts: 25, PriceUnits: 1.2,
			Flexibility: 7, ProgrammingEase: 9, ExternalMemory: true,
			BlastRadius: 1,
		},
		{
			Name:     "Tofino-class switch ASIC",
			PeakMpps: 2500, Watts: 237, PriceUnits: 12,
			Flexibility: 4, ProgrammingEase: 5, ExternalMemory: false,
			BlastRadius: 24,
		},
	}
}

// Requirements describe an application's needs.
type Requirements struct {
	// MinMpps is the required message rate.
	MinMpps float64
	// NeedExternalMemory for large state (e.g. a full KVS, §5.3).
	NeedExternalMemory bool
	// MinFlexibility (0-10): protocol/feature complexity the target must
	// absorb.
	MinFlexibility int
	// MaxPriceUnits bounds the budget (NIC-class = 1).
	MaxPriceUnits float64
}

// Score is a ranked platform.
type Score struct {
	Platform Platform
	// Feasible platforms meet every hard requirement.
	Feasible bool
	// Why lists violated requirements for infeasible platforms.
	Why []string
	// Value ranks feasible platforms: performance per watt per price.
	Value float64
}

// Rank evaluates the catalog against req, feasible platforms first,
// ordered by Value (perf/W normalized by price).
func Rank(req Requirements) []Score {
	var out []Score
	for _, p := range Catalog() {
		s := Score{Platform: p, Feasible: true}
		if p.PeakMpps < req.MinMpps {
			s.Feasible = false
			s.Why = append(s.Why, fmt.Sprintf("peak %.0f Mpps < required %.0f", p.PeakMpps, req.MinMpps))
		}
		if req.NeedExternalMemory && !p.ExternalMemory {
			s.Feasible = false
			s.Why = append(s.Why, "no external memory")
		}
		if p.Flexibility < req.MinFlexibility {
			s.Feasible = false
			s.Why = append(s.Why, fmt.Sprintf("flexibility %d < required %d", p.Flexibility, req.MinFlexibility))
		}
		if req.MaxPriceUnits > 0 && p.PriceUnits > req.MaxPriceUnits {
			s.Feasible = false
			s.Why = append(s.Why, fmt.Sprintf("price %.1f > budget %.1f", p.PriceUnits, req.MaxPriceUnits))
		}
		s.Value = p.PerfPerWatt() / p.PriceUnits
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Feasible != out[j].Feasible {
			return out[i].Feasible
		}
		return out[i].Value > out[j].Value
	})
	return out
}
