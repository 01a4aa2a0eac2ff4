package sim

import (
	"time"

	"dufp/internal/arch"
	"dufp/internal/model"
	"dufp/internal/msr"
	"dufp/internal/papi"
	"dufp/internal/rapl"
	"dufp/internal/uncore"
	"dufp/internal/units"
)

// Socket is one simulated package: its workload progress, actuation state
// (delivered core and uncore frequency, RAPL limiter) and accounting
// (energy, counters, frequency integrals).
type Socket struct {
	m    *Machine
	id   int
	cpu0 int
	spec arch.Spec

	limiter *rapl.Limiter
	policy  uncore.DefaultPolicy

	request    units.Frequency // OS-requested core frequency
	coreFreq   units.Frequency // delivered core frequency
	uncoreFreq units.Frequency // delivered uncore frequency
	band       msr.UncoreRatioLimit

	phases    []model.Kinetics
	idx       int
	remaining float64 // fraction of current phase left
	done      bool
	finished  time.Duration

	// Accounting.
	pkgEnergy  units.Energy
	dramEnergy units.Energy
	flops      float64
	bytes      float64
	aperf      float64 // cycles at delivered frequency
	mperf      float64 // cycles at TSC (base) frequency
	busySecs   float64
	coreHzSecs float64 // ∫f dt while busy
	uncHzSecs  float64 // ∫u dt while busy

	// Per-tick energy being accumulated before settle.
	pendingEnergy units.Energy
	pendingDram   units.Energy
	lastPower     units.Power
	lastDram      units.Power
	lastLoad      model.Load
	lastBW        units.Bandwidth
	lastFlopRate  units.FlopRate

	// jitter draws the per-tick power jitter, seeded by New and Reset.
	jitter jitterRNG

	// Rate cache: rates only change when the operating point or phase
	// does.
	cacheOK bool
	cacheF  units.Frequency
	cacheU  units.Frequency
	cached  model.Rates

	// adv memoises the advance() computation at a fixed operating point:
	// rates, load and package power only change when the phase, the
	// global progress or a delivered frequency does, so re-evaluating the
	// power model every tick is wasted work at a steady operating point.
	adv advCache
}

// advCache holds the per-tick quantities of advance() together with the
// inputs they were derived from. A hit replays exactly the values a full
// recomputation would produce, so cached ticks are bit-identical to
// uncached ones.
type advCache struct {
	ok       bool
	idx      int
	progress float64
	f, u     units.Frequency

	flopRate float64
	bwRate   float64
	load     model.Load
	pw       units.Power
	dramPw   units.Power
}

func (s *Socket) reset(phases []model.Kinetics) {
	s.phases = phases
	s.idx = 0
	s.remaining = 1
	s.done = len(phases) == 0
	s.finished = 0
	s.pkgEnergy, s.dramEnergy = 0, 0
	s.flops, s.bytes = 0, 0
	s.aperf, s.mperf = 0, 0
	s.busySecs, s.coreHzSecs, s.uncHzSecs = 0, 0, 0
	s.request = s.spec.MaxCoreFreq
	s.coreFreq = s.spec.MaxCoreFreq
	s.uncoreFreq = s.spec.MaxUncoreFreq
	s.band = msr.UncoreRatioLimit{
		Min: msr.FrequencyToRatio(s.spec.MinUncoreFreq),
		Max: msr.FrequencyToRatio(s.spec.MaxUncoreFreq),
	}
	s.limiter.Reset()
	s.lastPower, s.lastDram = 0, 0
	s.lastLoad = model.Load{}
	s.lastBW = 0
	s.lastFlopRate = 0
	s.pendingEnergy, s.pendingDram = 0, 0
	s.cacheOK = false
	s.adv = advCache{}
}

// ID returns the package index.
func (s *Socket) ID() int { return s.id }

// CPU0 returns the first logical CPU of the package, the one controllers
// address their MSR operations to.
func (s *Socket) CPU0() int { return s.cpu0 }

// Done reports whether the socket's workload completed.
func (s *Socket) Done() bool { return s.done }

// FinishedAt returns when the workload completed (zero if still running).
func (s *Socket) FinishedAt() time.Duration { return s.finished }

// CoreFreq returns the currently delivered core frequency.
func (s *Socket) CoreFreq() units.Frequency { return s.coreFreq }

// UncoreFreq returns the currently delivered uncore frequency.
func (s *Socket) UncoreFreq() units.Frequency { return s.uncoreFreq }

// PkgEnergy returns the package energy accumulated so far.
func (s *Socket) PkgEnergy() units.Energy { return s.pkgEnergy }

// DramEnergy returns the DRAM energy accumulated so far.
func (s *Socket) DramEnergy() units.Energy { return s.dramEnergy }

// Counter implements papi.Source.
func (s *Socket) Counter(ev papi.Event) float64 {
	switch ev {
	case papi.FPOps:
		return s.flops
	case papi.MemBytes:
		return s.bytes
	default:
		return 0
	}
}

// Now implements papi.Source.
func (s *Socket) Now() time.Duration { return s.m.now }

// AvgCoreFreq returns the time-weighted delivered core frequency while the
// workload was running.
func (s *Socket) AvgCoreFreq() units.Frequency {
	if s.busySecs == 0 {
		return 0
	}
	return units.Frequency(s.coreHzSecs / s.busySecs)
}

// AvgUncoreFreq returns the time-weighted delivered uncore frequency while
// the workload was running.
func (s *Socket) AvgUncoreFreq() units.Frequency {
	if s.busySecs == 0 {
		return 0
	}
	return units.Frequency(s.uncHzSecs / s.busySecs)
}

// rates returns the current phase's rates at the operating point, cached.
func (s *Socket) rates() model.Rates {
	if s.cacheOK && s.cacheF == s.coreFreq && s.cacheU == s.uncoreFreq {
		return s.cached
	}
	s.cached = s.phases[s.idx].At(s.coreFreq, s.uncoreFreq)
	s.cacheF, s.cacheU = s.coreFreq, s.uncoreFreq
	s.cacheOK = true
	return s.cached
}

// prepare runs the per-tick actuation that precedes workload advance: the
// hardware uncore policy moves the delivered uncore frequency one ratio
// toward its target inside the programmed band.
func (s *Socket) prepare() {
	lo := msr.RatioToFrequency(s.band.Min)
	hi := msr.RatioToFrequency(s.band.Max)
	s.stepUncoreToward(s.policy.Target(lo, hi, s.lastLoad.MemUtil, !s.done))
}

// potential returns the socket's achievable rates for the current phase at
// its own operating point.
func (s *Socket) potential() model.Rates { return s.rates() }

// advance moves the socket through `progress` of the current phase over
// step seconds, running at the globally agreed rate (the slowest socket's
// — the barrier coupling of an SPMD application). Delivered counter rates
// follow the global progress; the socket's own operating point only sets
// where its power lands.
func (s *Socket) advance(step, progress float64) {
	c := &s.adv
	if !c.ok || c.progress != progress || c.f != s.coreFreq || c.u != s.uncoreFreq || c.idx != s.idx {
		cfg := &s.m.cfg
		kin := &s.phases[s.idx]
		c.flopRate = kin.Flops * progress
		c.bwRate = kin.Bytes * progress
		c.load = model.Load{ActivityExtra: kin.ActivityExtra()}
		if pf := float64(s.spec.PeakFlops(s.coreFreq)); pf > 0 {
			c.load.FlopUtil = c.flopRate / pf
		}
		if pb := float64(s.spec.PeakMemoryBandwidth); pb > 0 {
			c.load.MemUtil = c.bwRate / pb
		}
		c.pw = cfg.Power.PackagePower(&s.spec, s.coreFreq, s.uncoreFreq, c.load)
		c.dramPw = cfg.Power.DramPower(units.Bandwidth(c.bwRate))
		c.idx, c.progress, c.f, c.u = s.idx, progress, s.coreFreq, s.uncoreFreq
		c.ok = true
	}

	s.flops += c.flopRate * step
	s.bytes += c.bwRate * step
	s.lastLoad = c.load
	s.lastBW = units.Bandwidth(c.bwRate)
	s.lastFlopRate = units.FlopRate(c.flopRate)
	s.pendingEnergy += model.EnergyOver(c.pw, step)
	s.pendingDram += model.EnergyOver(c.dramPw, step)

	s.remaining -= progress * step
	if s.remaining <= 1e-9 {
		s.idx++
		s.remaining = 1
		s.cacheOK = false
		if s.idx >= len(s.phases) {
			s.done = true
		}
	}
}

// settle closes the tick: idle draw for any remainder after completion,
// power jitter, energy and frequency accounting, and the RAPL enforcement
// step that picks the next delivered core frequency.
func (s *Socket) settle(dt, idle float64) {
	cfg := &s.m.cfg
	if idle > 0 {
		s.pendingEnergy += model.EnergyOver(cfg.IdlePower, idle)
		s.pendingDram += model.EnergyOver(cfg.Power.DramStatic, idle)
	}
	// Energy.DividedBy and Power.Over over tickDur, with its seconds
	// hoisted (see Machine.tickSecs).
	tick := s.m.tickSecs
	avgPower := units.Power(float64(s.pendingEnergy) / tick)
	if cfg.PowerJitterSD > 0 {
		j := units.Power(s.jitter.normFloat64() * cfg.PowerJitterSD)
		if avgPower+j > 0 {
			avgPower += j
			s.pendingEnergy = units.Energy(float64(avgPower) * tick)
		}
	}
	s.pkgEnergy += s.pendingEnergy
	s.dramEnergy += s.pendingDram
	s.lastPower = avgPower
	s.lastDram = units.Power(float64(s.pendingDram) / tick)
	s.pendingEnergy, s.pendingDram = 0, 0

	busy := dt - idle
	s.busySecs += busy
	s.coreHzSecs += float64(s.coreFreq) * busy
	s.uncHzSecs += float64(s.uncoreFreq) * busy
	s.aperf += float64(s.coreFreq) * busy
	s.mperf += float64(s.spec.BaseCoreFreq) * busy

	next := s.limiter.Step(avgPower, dt, s.coreFreq, s.request)
	if next != s.coreFreq {
		if next < s.coreFreq {
			s.m.clampTicks++
		}
		s.coreFreq = next
		s.cacheOK = false
	}
}

func (s *Socket) stepUncoreToward(target units.Frequency) {
	target = s.spec.ClampUncoreFreq(target)
	step := s.spec.UncoreFreqStep
	switch {
	case s.uncoreFreq < target:
		s.uncoreFreq = (s.uncoreFreq + step).Clamp(s.uncoreFreq, target)
		s.cacheOK = false
	case s.uncoreFreq > target:
		s.uncoreFreq = (s.uncoreFreq - step).Clamp(target, s.uncoreFreq)
		s.cacheOK = false
	}
}
