package model

import (
	"math"
	"testing"
	"testing/quick"

	"dufp/internal/arch"
	"dufp/internal/units"
)

func TestPackagePowerMonotonicInFrequency(t *testing.T) {
	p := DefaultPowerParams()
	spec := arch.XeonGold6130()
	load := Load{FlopUtil: 0.5, MemUtil: 0.5}
	prev := units.Power(0)
	for f := spec.MinCoreFreq; f <= spec.MaxCoreFreq; f += spec.CoreFreqStep {
		got := p.PackagePower(&spec, f, spec.MaxUncoreFreq, load)
		if got <= prev {
			t.Fatalf("power not increasing at f=%v: %v after %v", f, got, prev)
		}
		prev = got
	}
}

func TestPackagePowerMonotonicInUncore(t *testing.T) {
	p := DefaultPowerParams()
	spec := arch.XeonGold6130()
	load := Load{FlopUtil: 0.2, MemUtil: 0.8}
	prev := units.Power(0)
	for u := spec.MinUncoreFreq; u <= spec.MaxUncoreFreq; u += spec.UncoreFreqStep {
		got := p.PackagePower(&spec, spec.MaxCoreFreq, u, load)
		if got <= prev {
			t.Fatalf("power not increasing at u=%v: %v after %v", u, got, prev)
		}
		prev = got
	}
}

func TestPackagePowerMonotonicInLoad(t *testing.T) {
	p := DefaultPowerParams()
	spec := arch.XeonGold6130()
	f, u := spec.MaxCoreFreq, spec.MaxUncoreFreq
	idle := p.PackagePower(&spec, f, u, Load{})
	busy := p.PackagePower(&spec, f, u, Load{FlopUtil: 1, MemUtil: 1})
	if busy <= idle {
		t.Fatalf("busy power %v not above idle %v", busy, idle)
	}
	extra := p.PackagePower(&spec, f, u, Load{FlopUtil: 1, MemUtil: 1, ActivityExtra: 0.2})
	if extra <= busy {
		t.Fatalf("ActivityExtra did not raise power: %v vs %v", extra, busy)
	}
}

func TestCalibrationAnchors(t *testing.T) {
	// The calibration contract from the package comment: a compute-dense
	// HPL-like load slightly exceeds PL1 at max turbo, and the worst case
	// stays within the short-term limit's reach.
	p := DefaultPowerParams()
	spec := arch.XeonGold6130()
	hpl := p.PackagePower(&spec, spec.MaxCoreFreq, spec.MaxUncoreFreq, Load{FlopUtil: 0.74, MemUtil: 0.10})
	if hpl < spec.DefaultPL1*0.94 || hpl > spec.DefaultPL2 {
		t.Errorf("HPL-like load draws %v, want ≈PL1 (%v..%v)", hpl, spec.DefaultPL1, spec.DefaultPL2)
	}
	// Uncore span at low traffic covers the ≈13-16 W DUF recovers on EP.
	atMax := p.PackagePower(&spec, spec.MaxCoreFreq, spec.MaxUncoreFreq, Load{FlopUtil: 0.08})
	atMin := p.PackagePower(&spec, spec.MaxCoreFreq, spec.MinUncoreFreq, Load{FlopUtil: 0.08})
	if span := float64(atMax - atMin); span < 10 || span > 20 {
		t.Errorf("uncore power span = %.1f W, want 10..20 W", span)
	}
}

func TestLoadClamping(t *testing.T) {
	p := DefaultPowerParams()
	spec := arch.XeonGold6130()
	f, u := spec.MaxCoreFreq, spec.MaxUncoreFreq
	over := p.PackagePower(&spec, f, u, Load{FlopUtil: 5, MemUtil: 7})
	capped := p.PackagePower(&spec, f, u, Load{FlopUtil: 1, MemUtil: 1})
	if over != capped {
		t.Fatalf("utilisation not clamped: %v vs %v", over, capped)
	}
	neg := p.PackagePower(&spec, f, u, Load{FlopUtil: -3, MemUtil: -1})
	zero := p.PackagePower(&spec, f, u, Load{})
	if neg != zero {
		t.Fatalf("negative utilisation not clamped: %v vs %v", neg, zero)
	}
}

func TestDramPowerLinear(t *testing.T) {
	p := DefaultPowerParams()
	base := p.DramPower(0)
	if base != p.DramStatic {
		t.Fatalf("idle DRAM power = %v, want %v", base, p.DramStatic)
	}
	full := p.DramPower(85 * units.GBPerSecond)
	want := float64(p.DramStatic) + p.DramPerGBs*85
	if math.Abs(float64(full)-want) > 1e-9 {
		t.Fatalf("DRAM power at 85 GB/s = %v, want %v", full, want)
	}
}

func TestFrequencyForPowerInverse(t *testing.T) {
	p := DefaultPowerParams()
	spec := arch.XeonGold6130()
	prop := func(fu, mu uint8, budgetW uint16) bool {
		load := Load{FlopUtil: float64(fu%101) / 100, MemUtil: float64(mu%101) / 100}
		budget := units.Power(float64(budgetW%120) + 40)
		f := p.FrequencyForPower(spec, spec.MaxUncoreFreq, load, budget)
		if f < spec.MinCoreFreq || f > spec.MaxCoreFreq {
			return false
		}
		// Either the budget is met, or even the minimum frequency exceeds
		// it (the limiter can do no more).
		if p.PackagePower(&spec, f, spec.MaxUncoreFreq, load) <= budget {
			// The next step up must violate, unless already at max.
			if f == spec.MaxCoreFreq {
				return true
			}
			return p.PackagePower(&spec, f+spec.CoreFreqStep, spec.MaxUncoreFreq, load) > budget
		}
		return f == spec.MinCoreFreq
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVoltageCurves(t *testing.T) {
	p := DefaultPowerParams()
	if v := p.CoreVolt(2.8 * units.Gigahertz); v <= p.CoreVolt(1.0*units.Gigahertz) {
		t.Fatal("core voltage not increasing with frequency")
	}
	if v := p.UncoreVolt(2.4 * units.Gigahertz); v <= p.UncoreVolt(1.2*units.Gigahertz) {
		t.Fatal("uncore voltage not increasing with frequency")
	}
}

func TestMaxPowerDominates(t *testing.T) {
	p := DefaultPowerParams()
	spec := arch.XeonGold6130()
	max := p.MaxPower(spec)
	for _, load := range []Load{{}, {FlopUtil: 1}, {MemUtil: 1}, {FlopUtil: 0.5, MemUtil: 0.5}} {
		for f := spec.MinCoreFreq; f <= spec.MaxCoreFreq; f += 4 * spec.CoreFreqStep {
			if got := p.PackagePower(&spec, f, spec.MaxUncoreFreq, load); got > max {
				t.Fatalf("PackagePower(%v, %+v) = %v exceeds MaxPower %v", f, load, got, max)
			}
		}
	}
}

func TestEnergyOver(t *testing.T) {
	if got := EnergyOver(100*units.Watt, 0.5); got != 50*units.Joule {
		t.Fatalf("EnergyOver = %v, want 50 J", got)
	}
}

func TestInterp(t *testing.T) {
	if got := Interp(0, 10, 0.25); got != 2.5 {
		t.Fatalf("Interp = %v, want 2.5", got)
	}
	if got := Interp(0, 10, -1); got != 0 {
		t.Fatalf("Interp clamps low: %v", got)
	}
	if got := Interp(0, 10, 2); got != 10 {
		t.Fatalf("Interp clamps high: %v", got)
	}
}
