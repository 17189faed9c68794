package experiments

import "sort"

func init() {
	register("place", "FPGA, SmartNIC or Switch? platform guide (§10)", placeTable)
}

// The place table encodes §10 of the paper — "FPGA, SmartNIC or
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

// platform describes one in-network computing target.
type platform struct {
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
func (p platform) PerfPerWatt() float64 {
	if p.Watts <= 0 {
		return 0
	}
	return p.PeakMpps / p.Watts
}

// catalog returns the §10 platform set.
func catalog() []platform {
	return []platform{
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

// requirements describe an application's needs.
type requirements struct {
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

// score is a ranked platform.
type score struct {
	Platform platform
	// Feasible platforms meet every hard requirement.
	Feasible bool
	// Value ranks feasible platforms: performance per watt per price.
	Value float64
}

// rank evaluates the catalog against req, feasible platforms first,
// ordered by Value (perf/W normalized by price).
func rank(req requirements) []score {
	var out []score
	for _, p := range catalog() {
		out = append(out, score{
			Platform: p,
			Feasible: p.PeakMpps >= req.MinMpps &&
				(!req.NeedExternalMemory || p.ExternalMemory) &&
				p.Flexibility >= req.MinFlexibility &&
				(req.MaxPriceUnits <= 0 || p.PriceUnits <= req.MaxPriceUnits),
			Value: p.PerfPerWatt() / p.PriceUnits,
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Feasible != out[j].Feasible {
			return out[i].Feasible
		}
		return out[i].Value > out[j].Value
	})
	return out
}

func placeTable() *Table {
	t := &Table{
		ID:      "place",
		Title:   "§10: FPGA, SmartNIC or Switch?",
		Columns: []string{"platform", "peak[Mpps]", "watts", "Mpps/W", "price[xNIC]", "flex", "ease", "ext-mem", "blast"},
	}
	for _, p := range catalog() {
		t.AddRow(p.Name, p.PeakMpps, p.Watts, p.PerfPerWatt(), p.PriceUnits,
			p.Flexibility, p.ProgrammingEase, p.ExternalMemory, p.BlastRadius)
	}
	// Example rankings for the three case studies.
	apps := []struct {
		name string
		req  requirements
	}{
		{"kvs (large state)", requirements{MinMpps: 10, NeedExternalMemory: true, MinFlexibility: 8}},
		{"paxos (wire-speed coordination)", requirements{MinMpps: 100}},
		{"dns (small table, modest rate)", requirements{MinMpps: 1, MaxPriceUnits: 2}},
	}
	for _, app := range apps {
		ranked := rank(app.req)
		best := "none"
		if ranked[0].Feasible {
			best = ranked[0].Platform.Name
		}
		t.AddNote("%s -> %s", app.name, best)
	}
	t.AddNote("§10: 'the answer is not conclusive' — the guide applies the paper's hard constraints, then ranks by perf/W per price")
	return t
}
