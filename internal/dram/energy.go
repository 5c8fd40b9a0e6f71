package dram

// Energy accounting. The paper's motivation (§1, §2.1) is explicitly about
// cost and energy: "GDDR5 systems require significant energy per access";
// "CO DRAM technologies provide similar latency at a fraction of the cost
// and lower energy per access"; die-stacked memories are "significantly
// more energy-efficient". The channel model therefore meters access energy
// so placement policies can be compared on energy as well as performance
// (the FigEnergy extension experiment).
//
// The model is the standard DRAM decomposition: a fixed energy per row
// activation plus a per-bit transfer energy for reads and writes.
// Background/refresh power is omitted — it is identical across placement
// policies and so cancels in every comparison this repository makes.

// EnergyConfig holds per-operation energy costs.
type EnergyConfig struct {
	ActivateNJ    float64 // energy per row activation, nanojoules
	ReadPJPerBit  float64 // read transfer energy, picojoules per bit
	WritePJPerBit float64 // write transfer energy, picojoules per bit
}

// Representative per-technology energy figures (vendor datasheets and the
// die-stacking literature the paper cites [24, 26, 51]):

// GDDR5Energy is a bandwidth-optimized off-package part: high per-bit I/O
// energy from the 7 Gbps single-ended interface.
func GDDR5Energy() EnergyConfig {
	return EnergyConfig{ActivateNJ: 2.0, ReadPJPerBit: 14, WritePJPerBit: 14}
}

// DDR4Energy is the cost/capacity-optimized pool: lower-speed interface,
// lower energy per access.
func DDR4Energy() EnergyConfig {
	return EnergyConfig{ActivateNJ: 1.7, ReadPJPerBit: 8, WritePJPerBit: 8}
}

// HBMEnergy is an on-package stacked memory: short wires make it by far
// the most efficient per bit.
func HBMEnergy() EnergyConfig {
	return EnergyConfig{ActivateNJ: 0.9, ReadPJPerBit: 4, WritePJPerBit: 4}
}

// HBM3Energy is a current-generation on-package stack (the GH200-class
// GPU-attached pool): denser stacking edges it below first-generation HBM
// per bit.
func HBM3Energy() EnergyConfig {
	return EnergyConfig{ActivateNJ: 0.8, ReadPJPerBit: 3.5, WritePJPerBit: 3.5}
}

// LPDDR5XEnergy is the CPU-attached capacity pool of a Grace-Hopper-class
// system: mobile-derived low-power interface, slightly above on-package
// stacks per bit.
func LPDDR5XEnergy() EnergyConfig {
	return EnergyConfig{ActivateNJ: 1.0, ReadPJPerBit: 5, WritePJPerBit: 5}
}

// CXLDRAMEnergy is commodity DRAM behind a CXL.mem controller: DDR-class
// array energy plus the controller/SerDes overhead on every transfer.
func CXLDRAMEnergy() EnergyConfig {
	return EnergyConfig{ActivateNJ: 1.6, ReadPJPerBit: 9, WritePJPerBit: 9}
}

// accessEnergyNJ is the energy of one burst transfer.
func (e EnergyConfig) accessEnergyNJ(burstBytes int, write, activated bool) float64 {
	perBit := e.ReadPJPerBit
	if write {
		perBit = e.WritePJPerBit
	}
	nj := perBit * float64(burstBytes) * 8 / 1000 // pJ -> nJ
	if activated {
		nj += e.ActivateNJ
	}
	return nj
}

// EnergyNJ reports the total access energy metered so far, in nanojoules.
func (ch *Channel) EnergyNJ() float64 { return ch.energyNJ }
