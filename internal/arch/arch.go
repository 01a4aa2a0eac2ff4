// Package arch describes the simulated processor architecture: socket and
// core topology, frequency ladders for core and uncore domains, and the RAPL
// power-limit defaults.
//
// The reference specification mirrors the evaluation platform of the DUFP
// paper: the Grid'5000 yeti-2 node with four Intel Xeon Gold 6130 packages
// (Skylake-SP), summarised in the paper's Table I.
package arch

import (
	"fmt"

	"dufp/internal/units"
)

// Spec describes one processor package (socket) model. The methods the
// simulator calls per tick or per window (ClampCoreFreq, ClampUncoreFreq,
// PeakFlops) take a pointer: a value receiver copies all of Spec on every
// call, even inlined.
type Spec struct {
	// Name is the marketing name of the processor model.
	Name string
	// Microarchitecture names the core design (e.g. "Skylake-SP").
	Microarchitecture string
	// Cores is the number of physical cores per socket. Hyper-threading is
	// assumed disabled, as in the paper's experiments.
	Cores int

	// MinCoreFreq and MaxCoreFreq bound the core P-state ladder.
	// MaxCoreFreq is the maximum *all-core* turbo frequency: the highest
	// sustained frequency when every core is busy (2.8 GHz on the
	// Xeon Gold 6130 per the paper's Fig. 5).
	MinCoreFreq units.Frequency
	MaxCoreFreq units.Frequency
	// BaseCoreFreq is the advertised base (non-turbo) frequency.
	BaseCoreFreq units.Frequency
	// CoreFreqStep is the P-state granularity (one bus-clock multiplier).
	CoreFreqStep units.Frequency

	// MinUncoreFreq and MaxUncoreFreq bound the uncore frequency ladder.
	MinUncoreFreq units.Frequency
	MaxUncoreFreq units.Frequency
	// UncoreFreqStep is the uncore ratio granularity (100 MHz per ratio).
	UncoreFreqStep units.Frequency

	// TDP is the thermal design power of the package.
	TDP units.Power
	// DefaultPL1 and DefaultPL2 are the factory RAPL long-term and
	// short-term power limits.
	DefaultPL1 units.Power
	DefaultPL2 units.Power
	// PL1Window and PL2Window are the default RAPL averaging windows in
	// seconds.
	PL1Window float64
	PL2Window float64

	// MemoryPerNUMANode is the DRAM capacity attached to each socket, in
	// bytes. Informational; the simulator does not model capacity misses.
	MemoryPerNUMANode uint64
	// PeakMemoryBandwidth is the per-socket DRAM read+write bandwidth at
	// maximum uncore frequency.
	PeakMemoryBandwidth units.Bandwidth

	// FlopsPerCyclePerCore is the peak double-precision FLOPs retired per
	// cycle per core with full vector issue (AVX-512 FMA on Skylake-SP).
	FlopsPerCyclePerCore float64
}

// XeonGold6130 returns the specification of one Intel Xeon Gold 6130
// package as configured on yeti-2 (paper Table I and §IV-A).
func XeonGold6130() Spec {
	return Spec{
		Name:              "Intel Xeon Gold 6130",
		Microarchitecture: "Skylake-SP",
		Cores:             16,

		MinCoreFreq:  1.0 * units.Gigahertz,
		BaseCoreFreq: 2.1 * units.Gigahertz,
		MaxCoreFreq:  2.8 * units.Gigahertz,
		CoreFreqStep: 100 * units.Megahertz,

		MinUncoreFreq:  1.2 * units.Gigahertz,
		MaxUncoreFreq:  2.4 * units.Gigahertz,
		UncoreFreqStep: 100 * units.Megahertz,

		TDP:        125 * units.Watt,
		DefaultPL1: 125 * units.Watt,
		DefaultPL2: 150 * units.Watt,
		PL1Window:  1.0,
		PL2Window:  0.01,

		MemoryPerNUMANode:   64 << 30,
		PeakMemoryBandwidth: 85 * units.GBPerSecond,

		// 2 × AVX-512 FMA units × 8 doubles × 2 flops = 32 flops/cycle.
		FlopsPerCyclePerCore: 32,
	}
}

// Topology describes a full node: a number of identical sockets.
type Topology struct {
	// Sockets is the number of packages in the node.
	Sockets int
	// Spec is the per-socket specification.
	Spec Spec
}

// Yeti2 returns the topology of the Grid'5000 yeti-2 node used in the
// paper: four Xeon Gold 6130 sockets, 64 cores total.
func Yeti2() Topology {
	return Topology{Sockets: 4, Spec: XeonGold6130()}
}

// TotalCores returns the number of cores in the node.
func (t Topology) TotalCores() int { return t.Sockets * t.Spec.Cores }

// Validate reports an error when the topology is internally inconsistent.
func (t Topology) Validate() error {
	if t.Sockets <= 0 {
		return fmt.Errorf("arch: topology needs at least one socket, got %d", t.Sockets)
	}
	return t.Spec.Validate()
}

// Validate reports an error when the specification is internally
// inconsistent (inverted ladders, non-positive steps, PL1 > PL2, ...).
func (s Spec) Validate() error {
	switch {
	case s.Cores <= 0:
		return fmt.Errorf("arch: spec %q: cores must be positive, got %d", s.Name, s.Cores)
	case s.MinCoreFreq <= 0 || s.MaxCoreFreq < s.MinCoreFreq:
		return fmt.Errorf("arch: spec %q: invalid core frequency range [%v, %v]", s.Name, s.MinCoreFreq, s.MaxCoreFreq)
	case s.BaseCoreFreq < s.MinCoreFreq || s.BaseCoreFreq > s.MaxCoreFreq:
		return fmt.Errorf("arch: spec %q: base frequency %v outside [%v, %v]", s.Name, s.BaseCoreFreq, s.MinCoreFreq, s.MaxCoreFreq)
	case s.CoreFreqStep <= 0:
		return fmt.Errorf("arch: spec %q: core frequency step must be positive", s.Name)
	case s.MinUncoreFreq <= 0 || s.MaxUncoreFreq < s.MinUncoreFreq:
		return fmt.Errorf("arch: spec %q: invalid uncore frequency range [%v, %v]", s.Name, s.MinUncoreFreq, s.MaxUncoreFreq)
	case s.UncoreFreqStep <= 0:
		return fmt.Errorf("arch: spec %q: uncore frequency step must be positive", s.Name)
	case s.DefaultPL1 <= 0 || s.DefaultPL2 < s.DefaultPL1:
		return fmt.Errorf("arch: spec %q: invalid power limits PL1=%v PL2=%v", s.Name, s.DefaultPL1, s.DefaultPL2)
	case s.PL1Window <= 0 || s.PL2Window <= 0:
		return fmt.Errorf("arch: spec %q: power-limit windows must be positive", s.Name)
	case s.PeakMemoryBandwidth <= 0:
		return fmt.Errorf("arch: spec %q: peak memory bandwidth must be positive", s.Name)
	case s.FlopsPerCyclePerCore <= 0:
		return fmt.Errorf("arch: spec %q: flops per cycle must be positive", s.Name)
	}
	return nil
}

// CoreSteps returns the number of discrete core P-states.
func (s Spec) CoreSteps() int {
	return int((s.MaxCoreFreq-s.MinCoreFreq)/s.CoreFreqStep) + 1
}

// UncoreSteps returns the number of discrete uncore ratios.
func (s Spec) UncoreSteps() int {
	return int((s.MaxUncoreFreq-s.MinUncoreFreq)/s.UncoreFreqStep) + 1
}

// ClampCoreFreq snaps f onto the core P-state ladder: clamped to the legal
// range and rounded to the nearest step multiple above the minimum, a tie
// rounding up (2.75 GHz becomes 2.8 GHz on a 100 MHz ladder from 1 GHz).
func (s *Spec) ClampCoreFreq(f units.Frequency) units.Frequency {
	return snap(f, s.MinCoreFreq, s.MaxCoreFreq, s.CoreFreqStep)
}

// ClampUncoreFreq snaps f onto the uncore ratio ladder.
func (s *Spec) ClampUncoreFreq(f units.Frequency) units.Frequency {
	return snap(f, s.MinUncoreFreq, s.MaxUncoreFreq, s.UncoreFreqStep)
}

func snap(f, lo, hi, step units.Frequency) units.Frequency {
	f = f.Clamp(lo, hi)
	n := int((f - lo + step/2) / step)
	return lo + units.Frequency(n)*step
}

// PeakFlops returns the peak FLOP rate of the socket at core frequency f.
func (s *Spec) PeakFlops(f units.Frequency) units.FlopRate {
	return units.FlopRate(float64(f) * s.FlopsPerCyclePerCore * float64(s.Cores))
}

// String summarises the spec in a Table I-like single line.
func (s Spec) String() string {
	return fmt.Sprintf("%s (%s): %d cores, core [%v-%v], uncore [%v-%v], PL1 %v, PL2 %v",
		s.Name, s.Microarchitecture, s.Cores,
		s.MinCoreFreq, s.MaxCoreFreq, s.MinUncoreFreq, s.MaxUncoreFreq,
		s.DefaultPL1, s.DefaultPL2)
}
