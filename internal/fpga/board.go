// Package fpga models the NetFPGA SUME platform (Xilinx Virtex-7 690T) the
// paper uses as its common hardware target, at the granularity the paper's
// §5 component study needs: reference-NIC base power, main logical core,
// processing elements, external memories (DRAM/SRAM), clock gating, memory
// interface reset, and module deactivation.
//
// Calibration anchors (all from the paper):
//
//   - §4.2/§4.3: the LaKe card adds ~20 W to the idle server (39 -> 59 W);
//     the P4xos card adds ~10 W (its base is "10W lower" as it has no
//     external memories); Emu DNS sits at 47.5-48 W total.
//   - §4.3: P4xos standalone idle is 18.2 W, dynamic power <= 1.2 W.
//   - §5.1: clock gating saves < 1 W; each PE costs ~0.25 W; external
//     memories cost >= 10 W; resetting memory interfaces saves 40%.
//   - §5.2: LaKe logic over the reference NIC is 2.2 W total (five PEs,
//     interconnect, classifier), under 3% of FPGA resources; each PE
//     supports up to 3.3 Mqps; five PEs reach 10GE line rate (~13 Mqps).
//   - §5.3: 4 GB DRAM = 4.8 W holds 33 M value entries (x65k on-chip);
//     18 MB SRAM = 6 W holds 4.7 M free chunks (x32k on-chip).
package fpga

import "math"

// Component power constants (watts). See package comment for provenance.
const (
	// NICBaseCardWatts is the in-server power increment of the NetFPGA
	// programmed as the reference NIC.
	NICBaseCardWatts = 7.0
	// PEWatts is the power of one processing element (§5.1: ~0.25 W).
	PEWatts = 0.25
	// DRAMWatts is the 4 GB DRAM interface+devices cost (§5.3).
	DRAMWatts = 4.8
	// SRAMWatts is the 18 MB SRAM cost (§5.3).
	SRAMWatts = 6.0
	// ClockGatingSavesWatts is the §5.1 "less than 1W" saving.
	ClockGatingSavesWatts = 0.9
	// MemoryResetSaveFraction of the memory power is saved by holding the
	// external memory interfaces in reset (§5.1: 40%).
	MemoryResetSaveFraction = 0.40
	// StandaloneOverheadWatts is the extra draw of a host-less board
	// (own power supply and management), derived from P4xos: 18.2 W
	// standalone vs a ~10 W in-server increment (§4.3).
	StandaloneOverheadWatts = 8.2
	// PEThroughputKqps is one PE's capacity (§5.2: up to 3.3 Mqps).
	PEThroughputKqps = 3300
	// LineRateKpps is 10GE line rate for memcached-sized packets
	// (§3.1: "5 PEs are sufficient ... roughly 13M queries/sec").
	LineRateKpps = 13000
)

// Memory capacity constants (§5.3).
const (
	// DRAMValueEntries is how many 64 B value chunks 4 GB DRAM holds.
	DRAMValueEntries = 33_000_000
	// OnChipValueEntries is x65k fewer than DRAM (§5.3).
	OnChipValueEntries = DRAMValueEntries / 65_000
	// SRAMFreeChunks is the SRAM free-list capacity.
	SRAMFreeChunks = 4_700_000
	// OnChipFreeChunks is x32k fewer than SRAM (§5.3).
	OnChipFreeChunks = SRAMFreeChunks / 32_000
)

// Config describes one compiled design for the board.
type Config struct {
	Name string
	// LogicFixedWatts is the non-PE application logic (classifier,
	// interconnect, pipeline) over the reference NIC.
	LogicFixedWatts float64
	// NumPEs is the number of processing elements in the design.
	NumPEs int
	// UsesDRAM / UsesSRAM enable the external memories.
	UsesDRAM bool
	UsesSRAM bool
	// DynamicWattsMax is the additional draw at 100% load (§4.3: <= 1.2 W
	// for P4xos; in-network compute power barely moves with load).
	DynamicWattsMax float64
	// PeakKpps is the design's peak service rate.
	PeakKpps float64
}

// Designs evaluated in the paper.
var (
	// ReferenceNIC is the stock NetFPGA NIC design.
	ReferenceNIC = Config{Name: "reference-nic", PeakKpps: LineRateKpps}

	// LaKeDesign is the layered key-value store (§3.1): five PEs,
	// classifier + interconnect, both external memories.
	LaKeDesign = Config{
		Name:            "lake",
		LogicFixedWatts: 0.95,
		NumPEs:          5,
		UsesDRAM:        true,
		UsesSRAM:        true,
		DynamicWattsMax: 0.5,
		PeakKpps:        LineRateKpps,
	}

	// P4xosDesign is the P4 Paxos pipeline (§3.2): on-chip memory only.
	P4xosDesign = Config{
		Name:            "p4xos",
		LogicFixedWatts: 3.0,
		DynamicWattsMax: 1.2,
		PeakKpps:        10000, // 10 M msgs/s on NetFPGA SUME (§3.2)
	}

	// EmuDNSDesign is the Emu-compiled DNS (§3.3) with the added packet
	// classifier; non-pipelined, so it peaks around 1 Mqps (§4.4).
	EmuDNSDesign = Config{
		Name:            "emu-dns",
		LogicFixedWatts: 1.5,
		DynamicWattsMax: 0.4,
		PeakKpps:        1000,
	}
)

// Board is a NetFPGA SUME card programmed with one design. Its power is a
// function of its configuration state (active PEs, gating, memory reset)
// and the offered load the caller reports.
type Board struct {
	cfg Config
	// Standalone adds the host-less overhead (own PSU, §4.3).
	standalone bool

	activePEs  int
	clockGated bool
	memReset   bool
	// moduleActive is false when the design is held inactive and the
	// board serves as a plain NIC (the §9.2 idle strategy).
	moduleActive bool
}

// NewBoard programs a board with cfg; the design starts active with all
// PEs on, no gating, memories out of reset.
func NewBoard(cfg Config) *Board {
	return &Board{cfg: cfg, activePEs: cfg.NumPEs, moduleActive: true}
}

// Config returns the programmed design.
func (b *Board) Config() Config { return b.cfg }

// Reprogram loads a different design onto the board (full or partial
// reconfiguration, §9.2's alternative idle strategy). All gating and
// reset state is cleared and the new design starts active; any state in
// on-board memories is lost. Callers model the reconfiguration-time
// traffic halt themselves.
func (b *Board) Reprogram(cfg Config) {
	b.cfg = cfg
	b.activePEs = cfg.NumPEs
	b.clockGated = false
	b.memReset = false
	b.moduleActive = true
}

// SetStandalone marks the board as host-less (adds PSU overhead).
func (b *Board) SetStandalone(v bool) { b.standalone = v }

// SetClockGating enables or disables clock gating of the logic module and
// PEs (§5.1).
func (b *Board) SetClockGating(v bool) { b.clockGated = v }

// SetMemoryReset holds the external memory interfaces in reset (§5.1).
// Resetting the memories invalidates any cached state; callers owning
// caches must flush them.
func (b *Board) SetMemoryReset(v bool) { b.memReset = v }

// SetActivePEs clamps n to [0, NumPEs] and powers the rest down
// (§5.1 "deactivating modules").
func (b *Board) SetActivePEs(n int) {
	if n < 0 {
		n = 0
	}
	if n > b.cfg.NumPEs {
		n = b.cfg.NumPEs
	}
	b.activePEs = n
}

// SetModuleActive switches the design between serving (true) and held
// inactive as a plain NIC (false).
func (b *Board) SetModuleActive(v bool) { b.moduleActive = v }

// PeakKpps returns the effective service capacity given active PEs.
func (b *Board) PeakKpps() float64 {
	if !b.moduleActive {
		return 0
	}
	if b.cfg.NumPEs == 0 {
		return b.cfg.PeakKpps
	}
	peak := float64(b.activePEs) * PEThroughputKqps
	return math.Min(peak, b.cfg.PeakKpps)
}

// logicWatts returns the application-logic draw given gating state.
func (b *Board) logicWatts() float64 {
	logic := b.cfg.LogicFixedWatts + float64(b.activePEs)*PEWatts
	if b.clockGated {
		logic -= ClockGatingSavesWatts
		if logic < 0.1*b.cfg.LogicFixedWatts {
			logic = 0.1 * b.cfg.LogicFixedWatts
		}
	}
	return logic
}

// memoryWatts returns the external-memory draw given reset state.
func (b *Board) memoryWatts() float64 {
	var w float64
	if b.cfg.UsesDRAM {
		w += DRAMWatts
	}
	if b.cfg.UsesSRAM {
		w += SRAMWatts
	}
	if b.memReset {
		w *= 1 - MemoryResetSaveFraction
	}
	return w
}

// CardWatts returns the in-server power increment at the given load
// fraction (0..1 of peak).
func (b *Board) CardWatts(load float64) float64 {
	if load < 0 {
		load = 0
	}
	if load > 1 {
		load = 1
	}
	w := NICBaseCardWatts + b.logicWatts() + b.memoryWatts()
	if b.moduleActive {
		w += b.cfg.DynamicWattsMax * load
	}
	if b.standalone {
		w += StandaloneOverheadWatts
	}
	return w
}

// UltraScalePlusFactor is the §5.4 note that Xilinx UltraScale+ reaches
// x2.4 the performance per watt of the Virtex-7 generation.
const UltraScalePlusFactor = 2.4

// Scaled returns a config whose power is divided by an efficiency factor,
// modelling a newer FPGA generation at equal throughput (§5.4).
func (c Config) Scaled(factor float64) Config {
	out := c
	out.Name = c.Name + "-scaled"
	out.LogicFixedWatts /= factor
	out.DynamicWattsMax /= factor
	return out
}
