// Package rapl models Intel's Running Average Power Limit machinery from
// both sides: Limiter is the firmware-side enforcement loop that the
// simulator runs every tick (stepping core frequency so the running-average
// package power respects PL1/PL2), and Client is the software-side accessor
// that controllers use to program limits and read the wrapping energy
// counters through the MSR interface.
package rapl

import (
	"dufp/internal/arch"
	"dufp/internal/msr"
	"dufp/internal/units"
)

// Limiter enforces the package power limits by dynamic voltage and
// frequency scaling, the mechanism RAPL uses on real parts (paper §II-B).
// It maintains one running average per constraint, each over its own time
// window, and steps the delivered core frequency down while either average
// exceeds its limit. The averaging windows give the enforcement the
// realistic lag the paper observes: right after a cap decrease the consumed
// power can exceed the cap for a while.
type Limiter struct {
	spec  arch.Spec
	limit msr.PkgPowerLimit

	ema1, ema2 float64 // running average power per constraint, watts
	primed     bool

	// upMargin is the hysteresis fraction: frequency is only raised while
	// both averages sit below limit·(1-upMargin), avoiding hunting at the
	// cap.
	upMargin float64

	// Cached EMA gains: dt and the windows are fixed across a run, so the
	// two divisions in ema() are paid once per (dt, windows) combination
	// instead of twice per tick. A hit returns the very float64 a fresh
	// ema() call would.
	gainDT     float64
	gainW1     float64
	gainW2     float64
	gain1      float64
	gain2      float64
	gainPrimed bool
}

// NewLimiter creates an enforcement loop for one package with the factory
// default limits of spec.
func NewLimiter(spec arch.Spec) *Limiter {
	l := &Limiter{spec: spec}
	l.Reset()
	return l
}

// Reset restores the limiter to its factory state — programmed defaults,
// unprimed averages, cold gain cache — exactly as NewLimiter leaves it, so
// a pooled simulator can reuse the limiter in place without allocating.
func (l *Limiter) Reset() {
	*l = Limiter{
		spec:     l.spec,
		limit:    DefaultLimits(l.spec),
		upMargin: 0.02,
	}
}

// DefaultLimits returns the factory PL1/PL2 programming for spec.
func DefaultLimits(spec arch.Spec) msr.PkgPowerLimit {
	return msr.PkgPowerLimit{
		PL1: msr.PowerLimit{Limit: spec.DefaultPL1, Window: spec.PL1Window, Enabled: true, Clamp: true},
		PL2: msr.PowerLimit{Limit: spec.DefaultPL2, Window: spec.PL2Window, Enabled: true, Clamp: true},
	}
}

// SetLimits reprograms the constraints (the MSR 0x610 write path).
func (l *Limiter) SetLimits(pl msr.PkgPowerLimit) { l.limit = pl }

// Limits returns the currently programmed constraints.
func (l *Limiter) Limits() msr.PkgPowerLimit { return l.limit }

// Averages returns the current PL1- and PL2-window running averages.
func (l *Limiter) Averages() (units.Power, units.Power) {
	return units.Power(l.ema1), units.Power(l.ema2)
}

// Step advances the enforcement loop by dt seconds during which the package
// drew power. cur is the currently delivered core frequency and request is
// the OS-requested frequency (the performance governor requests the
// maximum). It returns the frequency to deliver next tick, moving at most
// one P-state per call, which bounds the actuation slew rate.
func (l *Limiter) Step(power units.Power, dt float64, cur, request units.Frequency) units.Frequency {
	p := float64(power)
	if !l.primed {
		l.ema1, l.ema2 = p, p
		l.primed = true
	} else {
		w1, w2 := l.limit.PL1.Window, l.limit.PL2.Window
		if !l.gainPrimed || dt != l.gainDT || w1 != l.gainW1 || w2 != l.gainW2 {
			l.gain1 = ema(dt, w1)
			l.gain2 = ema(dt, w2)
			l.gainDT, l.gainW1, l.gainW2 = dt, w1, w2
			l.gainPrimed = true
		}
		l.ema1 += l.gain1 * (p - l.ema1)
		l.ema2 += l.gain2 * (p - l.ema2)
	}

	over := (l.limit.PL1.Enabled && l.ema1 > float64(l.limit.PL1.Limit)) ||
		(l.limit.PL2.Enabled && l.ema2 > float64(l.limit.PL2.Limit))
	if over {
		return l.spec.ClampCoreFreq(cur - l.spec.CoreFreqStep)
	}

	room := (!l.limit.PL1.Enabled || l.ema1 < float64(l.limit.PL1.Limit)*(1-l.upMargin)) &&
		(!l.limit.PL2.Enabled || l.ema2 < float64(l.limit.PL2.Limit)*(1-l.upMargin))
	if room && cur < request {
		return l.spec.ClampCoreFreq(cur + l.spec.CoreFreqStep)
	}
	return cur
}

// ema returns the exponential-moving-average gain for a step of dt seconds
// against a window of w seconds.
func ema(dt, w float64) float64 {
	if w <= 0 {
		return 1
	}
	a := dt / w
	if a > 1 {
		return 1
	}
	return a
}
