// Package model implements the analytic power and performance models of the
// simulated Skylake-SP package: CMOS-style core power (activity · V² · f plus
// leakage), uncore power driven by ring/LLC traffic, DRAM power proportional
// to bandwidth, and a roofline-with-saturation performance model whose
// memory bandwidth degrades below an uncore knee and below a core-frequency
// knee.
//
// Absolute values are calibrated, not measured: the constants in
// DefaultPowerParams are fitted so a compute-dense workload (HPL-like)
// slightly exceeds the 125 W PL1 of a Xeon Gold 6130 at maximum all-core
// turbo, a bandwidth-saturating workload draws ≈115 W, and the uncore at
// maximum frequency accounts for the ≈15-20 W that dynamic uncore scaling
// recovers on uncore-insensitive applications (paper §V-B, EP).
package model

import (
	"math"

	"dufp/internal/arch"
	"dufp/internal/units"
)

// PowerParams are the calibration constants of the package power model.
type PowerParams struct {
	// VoltBase and VoltSlope define the V/f curve: V = VoltBase +
	// VoltSlope·f_GHz, in volts.
	VoltBase, VoltSlope float64
	// CoreDynCoeff scales per-core dynamic power: P_dyn = coeff · a · V² ·
	// f_GHz per core, in watts.
	CoreDynCoeff float64
	// CoreLeakCoeff scales per-core leakage: P_leak = coeff · V per core.
	CoreLeakCoeff float64
	// ActivityBase, ActivityFlops and ActivityMem compose the switching
	// activity factor a = base + flops·(flopRate/peak) + mem·(bw/peakBW).
	ActivityBase, ActivityFlops, ActivityMem float64

	// UncoreVoltBase and UncoreVoltSlope define the uncore V/f curve.
	UncoreVoltBase, UncoreVoltSlope float64
	// UncoreDynCoeff scales uncore dynamic power: P = coeff · V² · u_GHz ·
	// (UncoreTrafficBase + (1-UncoreTrafficBase)·traffic).
	UncoreDynCoeff float64
	// UncoreTrafficBase is the idle fraction of uncore dynamic power.
	UncoreTrafficBase float64
	// UncoreStatic is the traffic- and frequency-independent uncore floor.
	UncoreStatic units.Power

	// PackageStatic is the rest-of-package constant draw (IO, PLLs, ...).
	PackageStatic units.Power

	// DramStatic is the background draw of one NUMA node's DIMMs.
	DramStatic units.Power
	// DramPerGBs is the incremental DRAM power per GB/s of traffic.
	DramPerGBs float64
}

// DefaultPowerParams returns the Xeon Gold 6130 calibration.
func DefaultPowerParams() PowerParams {
	return PowerParams{
		VoltBase:  0.65,
		VoltSlope: 0.12,

		CoreDynCoeff:  2.05,
		CoreLeakCoeff: 0.80,

		ActivityBase:  0.30,
		ActivityFlops: 0.62,
		ActivityMem:   0.26,

		UncoreVoltBase:    0.70,
		UncoreVoltSlope:   0.10,
		UncoreDynCoeff:    12.0,
		UncoreTrafficBase: 0.85,
		UncoreStatic:      4.5 * units.Watt,

		PackageStatic: 12 * units.Watt,

		DramStatic: 8 * units.Watt,
		DramPerGBs: 0.17,
	}
}

// Load describes the instantaneous utilisation the power model consumes.
type Load struct {
	// FlopUtil is achieved FLOP rate over peak FLOP rate at the current
	// core frequency, in [0, 1].
	FlopUtil float64
	// MemUtil is achieved bandwidth over peak bandwidth, in [0, 1].
	MemUtil float64
	// ActivityExtra is an additive switching-activity term contributed by
	// the phase's instruction mix (e.g. gather-heavy sparse code toggles
	// address-generation and fill-buffer logic far beyond what its FLOP
	// and bandwidth utilisation suggest).
	ActivityExtra float64
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// CoreVolt returns the core voltage at frequency f.
func (p *PowerParams) CoreVolt(f units.Frequency) float64 {
	return p.VoltBase + p.VoltSlope*f.GHz()
}

// UncoreVolt returns the uncore voltage at frequency u.
func (p *PowerParams) UncoreVolt(u units.Frequency) float64 {
	return p.UncoreVoltBase + p.UncoreVoltSlope*u.GHz()
}

// PackagePower returns the package (core + uncore + static) power of spec
// running load at core frequency f and uncore frequency u.
func (p *PowerParams) PackagePower(spec *arch.Spec, f, u units.Frequency, load Load) units.Power {
	a := p.ActivityBase + p.ActivityFlops*clamp01(load.FlopUtil) + p.ActivityMem*clamp01(load.MemUtil) + load.ActivityExtra
	v := p.CoreVolt(f)
	corePer := p.CoreDynCoeff*a*v*v*f.GHz() + p.CoreLeakCoeff*v
	core := units.Power(corePer * float64(spec.Cores))

	uv := p.UncoreVolt(u)
	traffic := p.UncoreTrafficBase + (1-p.UncoreTrafficBase)*clamp01(load.MemUtil)
	unc := units.Power(p.UncoreDynCoeff*uv*uv*u.GHz()*traffic) + p.UncoreStatic

	return core + unc + p.PackageStatic
}

// DramPower returns the DRAM power of one NUMA node moving bw of traffic.
func (p *PowerParams) DramPower(bw units.Bandwidth) units.Power {
	return p.DramStatic + units.Power(p.DramPerGBs*bw.GBs())
}

// FrequencyForPower inverts the package power model: it returns the highest
// frequency on spec's P-state ladder whose modelled power does not exceed
// budget, assuming the load stays fixed. It returns the minimum frequency
// when even that exceeds the budget. This is the planning primitive RAPL
// firmware effectively implements with its running-average controller.
func (p *PowerParams) FrequencyForPower(spec arch.Spec, u units.Frequency, load Load, budget units.Power) units.Frequency {
	f := spec.MaxCoreFreq
	for f > spec.MinCoreFreq {
		if p.PackagePower(&spec, f, u, load) <= budget {
			return f
		}
		f -= spec.CoreFreqStep
	}
	return spec.MinCoreFreq
}

// MaxPower returns the model's worst-case package power (full activity at
// maximum frequencies), useful for headroom checks and tests.
func (p *PowerParams) MaxPower(spec arch.Spec) units.Power {
	return p.PackagePower(&spec, spec.MaxCoreFreq, spec.MaxUncoreFreq, Load{FlopUtil: 1, MemUtil: 1})
}

// EnergyOver integrates power over dt seconds.
func EnergyOver(pw units.Power, dt float64) units.Energy {
	return units.Energy(float64(pw) * dt)
}

// Interp linearly interpolates between a and b by t in [0,1].
func Interp(a, b, t float64) float64 {
	return a + (b-a)*math.Min(1, math.Max(0, t))
}
