// Package rapl models Intel's Running Average Power Limit machinery from
// both sides: Limiter is the firmware-side enforcement loop that the
// simulator runs every tick (stepping core frequency so the running-average
// package power respects PL1/PL2), and Client is the software-side accessor
// that controllers use to program limits and read the wrapping energy
// counters through the MSR interface.
package rapl

import (
	"math"

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

	// upMargin is the hysteresis fraction: frequency is only raised while
	// both averages sit below limit·(1-upMargin), avoiding hunting at the
	// cap.
	upMargin float64

	// k holds the running averages and Step specialised to the operating
	// point of the latest call.
	k Kernel
}

// Kernel is one limiter's enforcement step at a fixed operating point:
// the tick length dt, the programmed limits, the delivered frequency cur
// and the requested frequency. Everything Step derives from those four —
// the EMA gains, the over-limit and hysteresis thresholds and both
// candidate next frequencies — is computed when the kernel is built, so a
// tick costs two EMA updates and a few comparisons and returns, bit for
// bit, what evaluating the decision from the limits would. A
// macro-stepped window of the simulator holds all four inputs fixed (any
// frequency transition ends it) and steps the kernel directly.
type Kernel struct {
	ema1, ema2 float64 // running average power per constraint, watts
	primed     bool

	// The operating point the fields below were derived from; built is
	// false after Reset and SetLimits.
	built        bool
	dt           float64
	cur, request units.Frequency

	gain1, gain2 float64 // EMA gains ema(dt, window)
	// over1 and over2 are the limits an average must exceed to lower the
	// frequency, +Inf for a disabled constraint: no float64 exceeds it,
	// so the comparison alone is Step's "enabled and above the limit".
	over1, over2 float64
	off1, off2   bool            // constraint disabled: its room test passes
	room1, room2 float64         // limit·(1-upMargin): below both, cur may rise
	down, up     units.Frequency // next frequency when over / with room
}

// NewLimiter creates an enforcement loop for one package with the factory
// default limits of spec.
func NewLimiter(spec arch.Spec) *Limiter {
	l := &Limiter{spec: spec}
	l.Reset()
	return l
}

// Reset restores the limiter to its factory state — programmed defaults,
// unprimed averages, no kernel built — exactly as NewLimiter leaves it,
// so a pooled simulator can reuse the limiter in place without
// allocating.
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
func (l *Limiter) SetLimits(pl msr.PkgPowerLimit) {
	l.limit = pl
	l.k.built = false
}

// Limits returns the currently programmed constraints.
func (l *Limiter) Limits() msr.PkgPowerLimit { return l.limit }

// Averages returns the current PL1- and PL2-window running averages.
func (l *Limiter) Averages() (units.Power, units.Power) {
	return units.Power(l.k.ema1), units.Power(l.k.ema2)
}

// Step advances the enforcement loop by dt seconds during which the package
// drew power. cur is the currently delivered core frequency and request is
// the OS-requested frequency (the performance governor requests the
// maximum). It returns the frequency to deliver next tick, moving at most
// one P-state per call, which bounds the actuation slew rate.
func (l *Limiter) Step(power units.Power, dt float64, cur, request units.Frequency) units.Frequency {
	return l.Kernel(dt, cur, request).Step(power)
}

// Kernel returns the limiter's step kernel for ticks of dt seconds at
// delivered frequency cur and requested frequency request under the
// current limits, rebuilding it when any of those changed since the last
// call. The kernel stays valid until the next SetLimits or Reset, or a
// Kernel or Step call with other inputs.
func (l *Limiter) Kernel(dt float64, cur, request units.Frequency) *Kernel {
	k := &l.k
	if !k.built || dt != k.dt || cur != k.cur || request != k.request {
		pl1, pl2 := l.limit.PL1, l.limit.PL2
		k.built, k.dt, k.cur, k.request = true, dt, cur, request
		k.gain1, k.gain2 = ema(dt, pl1.Window), ema(dt, pl2.Window)
		k.off1, k.off2 = !pl1.Enabled, !pl2.Enabled
		k.over1, k.over2 = math.Inf(1), math.Inf(1)
		if pl1.Enabled {
			k.over1 = float64(pl1.Limit)
		}
		if pl2.Enabled {
			k.over2 = float64(pl2.Limit)
		}
		k.room1 = float64(pl1.Limit) * (1 - l.upMargin)
		k.room2 = float64(pl2.Limit) * (1 - l.upMargin)
		k.down = l.spec.ClampCoreFreq(cur - l.spec.CoreFreqStep)
		k.up = cur
		if cur < request {
			k.up = l.spec.ClampCoreFreq(cur + l.spec.CoreFreqStep)
		}
	}
	return k
}

// Step is Limiter.Step at the kernel's operating point: it folds one
// tick's power into the running averages (the first tick after a reset
// primes them) and returns the frequency to deliver next tick. It is kept
// within the compiler's inlining budget, so a caller's tick loop pays no
// call for it.
func (k *Kernel) Step(power units.Power) units.Frequency {
	p := float64(power)
	if !k.primed {
		k.ema1, k.ema2, k.primed = p, p, true
	} else {
		k.ema1 += k.gain1 * (p - k.ema1)
		k.ema2 += k.gain2 * (p - k.ema2)
	}
	if k.ema1 > k.over1 || k.ema2 > k.over2 {
		return k.down
	}
	if (k.off1 || k.ema1 < k.room1) && (k.off2 || k.ema2 < k.room2) {
		return k.up
	}
	return k.cur
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
