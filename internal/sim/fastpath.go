// Event-horizon fast path: when the per-tick physics is provably
// invariant — every uncore already sits at its policy target, no
// monitoring stall is pending and no per-tick actor is attached — the
// distance (in ticks) to the next state-changing event is known, and the
// whole window can be advanced in one macro-step whose accumulation
// replays the reference loop's floating-point operations verbatim. The
// macro-step is therefore bit-identical to ticking the machine one
// millisecond at a time; it is merely free of the model re-evaluation,
// actuation polling and unit conversions that dominate the reference
// tick.
//
// Power jitter is the one per-tick input a window admits. It touches
// only the package power the tick settles with (energy, the last power
// reading and the RAPL limiter's input), never the load or rates the
// window holds constant, so the window draws it per socket per tick from
// the socket's own RNG exactly as the reference settle does.
//
// Events that bound a window are detected on two levels. Run computes the
// loop-level horizon before entering a window: the next governor
// invocation, trace sample, cancellation check and the MaxDuration
// ceiling. The window itself watches the tick-level events that cannot be
// predicted without integrating state forward: the RAPL limiter's
// running-average crossing a limit (a core-frequency transition) and a
// phase boundary (including workload completion). Any condition the fast
// path cannot prove invariant simply falls back to the exact loop — the
// fast path is an optimisation, never a second semantics.
package sim

import (
	"dufp/internal/model"
	"dufp/internal/msr"
	"dufp/internal/rapl"
	"dufp/internal/units"
)

// fastSock holds one socket's per-tick constants for the duration of a
// macro-stepped window. Every field is the exact value the reference
// loop would recompute on each tick of the window.
type fastSock struct {
	// Accumulator deltas: work counters, energy, frequency integrals.
	flopDelta    float64      // flopRate · dt
	byteDelta    float64      // bwRate · dt
	progressStep float64      // progress · dt
	pend         units.Energy // package energy per tick
	pendD        units.Energy // DRAM energy per tick
	coreHz       float64      // coreFreq · dt (∫f dt and APERF share it)
	uncHz        float64      // uncoreFreq · dt
	mperfD       float64      // baseFreq · dt

	// limiter is the socket's RAPL step at the window's fixed dt, limits,
	// delivered and requested frequency.
	limiter *rapl.Kernel

	// Constant observables, committed once per window.
	avgPower units.Power
	dram     units.Power
	load     model.Load
	bw       units.Bandwidth
	fr       units.FlopRate
}

// uncoreSteady reports whether the socket's delivered uncore frequency
// already equals what the hardware policy would pick for memUtil, i.e.
// whether prepare() would be a no-op this tick.
func (s *Socket) uncoreSteady(memUtil float64) bool {
	lo := msr.RatioToFrequency(s.band.Min)
	hi := msr.RatioToFrequency(s.band.Max)
	return s.uncoreFreq == s.spec.ClampUncoreFreq(s.policy.Target(lo, hi, memUtil, !s.done))
}

// establish proves the steady state a macro-stepped window needs and
// derives each socket's per-tick constants, committing the constant
// observables. It returns false — leaving all socket state untouched —
// when steady-state cannot be established, in which case the caller must
// run the exact per-tick loop. The caller guarantees no pending stall.
// Under power jitter the committed power is the window's unjittered
// base; window overwrites it on every tick it runs.
func (m *Machine) establish() bool {
	dt := m.dt

	// Check steady state against the load of the previous tick (what
	// prepare() would observe right now) before committing anything.
	for _, s := range m.sockets {
		if s.done || !s.uncoreSteady(s.lastLoad.MemUtil) {
			return false
		}
	}

	// The barrier-coupled global rate, exactly as the reference computes
	// it from the cached per-socket rates.
	var sum float64
	for _, s := range m.sockets {
		sum += s.potential().Progress
	}
	progress := sum / float64(len(m.sockets))

	// Derive each socket's per-tick constants. The arithmetic mirrors
	// advance() and settle() expression by expression so the committed
	// values are bit-identical to a reference tick's.
	cfg := &m.cfg
	for i, s := range m.sockets {
		f := &m.fast[i]
		kin := &s.phases[s.idx]
		flopRate := kin.Flops * progress
		bwRate := kin.Bytes * progress
		load := model.Load{ActivityExtra: kin.ActivityExtra()}
		if pf := float64(s.spec.PeakFlops(s.coreFreq)); pf > 0 {
			load.FlopUtil = flopRate / pf
		}
		if pb := float64(s.spec.PeakMemoryBandwidth); pb > 0 {
			load.MemUtil = bwRate / pb
		}
		// The window holds this load steady; if the uncore policy would
		// move away from it, the steady state does not exist.
		if !s.uncoreSteady(load.MemUtil) {
			return false
		}
		pend := model.EnergyOver(cfg.Power.PackagePower(&s.spec, s.coreFreq, s.uncoreFreq, load), dt)
		pendD := model.EnergyOver(cfg.Power.DramPower(units.Bandwidth(bwRate)), dt)

		f.flopDelta = flopRate * dt
		f.byteDelta = bwRate * dt
		f.progressStep = progress * dt
		f.pend = pend
		f.pendD = pendD
		f.coreHz = float64(s.coreFreq) * dt
		f.uncHz = float64(s.uncoreFreq) * dt
		f.mperfD = float64(s.spec.BaseCoreFreq) * dt
		f.limiter = s.limiter.Kernel(dt, s.coreFreq, s.request)
		f.avgPower = units.Power(float64(pend) / m.tickSecs)
		f.dram = units.Power(float64(pendD) / m.tickSecs)
		f.load = load
		f.bw = units.Bandwidth(bwRate)
		f.fr = units.FlopRate(flopRate)
	}
	m.fastProgress = progress

	// Commit the constant observables. Should the very first tick turn
	// out to be a phase boundary (a zero-tick window), the immediately
	// following exact tick reassigns every one of these fields, so the
	// early commit is invisible.
	for i, s := range m.sockets {
		f := &m.fast[i]
		s.lastLoad = f.load
		s.lastBW = f.bw
		s.lastFlopRate = f.fr
		s.lastPower = f.avgPower
		s.lastDram = f.dram
	}
	return true
}

// window advances the established machine by up to w whole ticks and
// returns the number of ticks consumed: all sockets interleaved per
// tick, with the boundary pre-check, the power jitter and the RAPL
// limiter evaluated every tick — the reference accumulation, verbatim.
// A tick-level event (phase boundary, limiter transition) ends the
// window early.
//
// A socket-tick makes no call, no interface dispatch and no struct copy:
// the jitter draw inlines NormFloat64's accepted case (≈ 97 % of draws;
// only the rejection path is a call) and the limiter step is the inlined
// kernel establish built. The tick's package energy, which the reference
// settle holds in pendingEnergy (zero at every tick start), lives in a
// local.
func (m *Machine) window(w int) int {
	dt := m.dt
	tickSecs := m.tickSecs
	progress := m.fastProgress
	jitterSD := m.cfg.PowerJitterSD
	n := 0
	for n < w {
		// A partial step inside this tick means a phase boundary: the
		// exact loop owns mixed ticks.
		if progress > 0 && m.sockets[0].remaining/progress < dt {
			break
		}
		boundary, transition := false, false
		for i, s := range m.sockets {
			f := &m.fast[i]
			s.flops += f.flopDelta
			s.bytes += f.byteDelta
			s.remaining -= f.progressStep
			if s.remaining <= 1e-9 {
				s.idx++
				s.remaining = 1
				s.cacheOK = false
				if s.idx >= len(s.phases) {
					s.done = true
				}
				boundary = true
			}

			// The settle accumulation, with the constant avgPower standing
			// in for the pending-energy division it equals, jittered as
			// settle jitters it.
			power, pending := f.avgPower, f.pend
			if jitterSD > 0 {
				r := &s.jitter
				j := int32(r.uint32())
				z := float64(j) * float64(wn[j&0x7F])
				if absInt32(j) >= kn[j&0x7F] {
					z = r.norm(j)
				}
				if jp := units.Power(z * jitterSD); power+jp > 0 {
					power += jp
					pending = units.Energy(float64(power) * tickSecs)
				}
			}
			s.lastPower = power
			s.pkgEnergy += pending
			s.dramEnergy += f.pendD
			s.busySecs += dt
			s.coreHzSecs += f.coreHz
			s.uncHzSecs += f.uncHz
			s.aperf += f.coreHz
			s.mperf += f.mperfD
			if next := f.limiter.Step(power); next != s.coreFreq {
				if next < s.coreFreq {
					m.clampTicks++
				}
				s.coreFreq = next
				s.cacheOK = false
				transition = true
			}
		}
		n++
		if boundary && m.done() {
			finished := m.now + m.tickDur
			for _, s := range m.sockets {
				s.finished = finished
			}
		}
		m.now += m.cfg.Tick
		if boundary || transition {
			break
		}
	}
	if n > 0 {
		m.fastTicksRun += int64(n)
		m.fastWindowsRun++
	}
	return n
}

// FastTicks returns the number of physics ticks of the most recent run
// that were advanced by the event-horizon macro-step rather than the
// exact per-tick loop.
func (m *Machine) FastTicks() int64 { return m.fastTicksRun }

// FastWindows returns the number of macro-stepped windows of the most
// recent run.
func (m *Machine) FastWindows() int64 { return m.fastWindowsRun }
