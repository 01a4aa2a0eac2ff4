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
// window holds constant, so the joint gear draws it per socket per tick
// from the socket's own RNG exactly as the reference settle does.
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
//
// Within a window the ticks execute in one of two gears. The joint gear
// interleaves all sockets tick by tick, evaluating the boundary pre-check,
// the power jitter and the RAPL limiter every tick. The straight-line
// gear runs whenever the RAPL limiters certify (Steady) that no frequency
// transition can occur and the phase boundary is provably more than the
// chunk away: each socket's accumulators then advance in a tight
// per-socket loop with every per-tick branch hoisted out, and the limiter
// averages are replayed afterwards in one Advance call. Both gears
// produce bit-identical state — the per-accumulator floating-point chains
// are socket-local, so reordering sockets around ticks changes nothing.
// The limiter certificate holds only at constant power, so a jittered
// machine runs the joint gear alone.
//
// Windows pause at control-round instants when Run has certified the
// governors' steadiness contract (see internal/control), letting the run
// skip whole decision rounds; run.go owns that plumbing, and needs
// constant power for the same reason.
package sim

import (
	"time"

	"dufp/internal/model"
	"dufp/internal/msr"
	"dufp/internal/units"
)

// straightPad backs the straight-line boundary bound away from the phase
// edge by a few ticks, dominating the floating-point drift between the
// bound's one division and the reference's repeated subtraction.
const straightPad = 4

// minStraight is the smallest chunk worth switching gears for: below it
// the limiter certification and write-back overhead exceeds the saved
// per-tick branches.
const minStraight = 8

// jointProbe bounds a joint-gear stint so the gear choice is revisited:
// the straight gear's preconditions can start holding mid-window (the
// limiters prime on the very first tick), and a single unbounded joint
// chunk would never notice.
const jointProbe = 32

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
// base; the joint gear overwrites it on every tick it runs.
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
		load := model.Load{ActivityExtra: kin.Shape().ActivityExtra}
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
		pend := model.EnergyOver(cfg.Power.PackagePower(s.spec, s.coreFreq, s.uncoreFreq, load), dt)
		pendD := model.EnergyOver(cfg.Power.DramPower(units.Bandwidth(bwRate)), dt)

		f.flopDelta = flopRate * dt
		f.byteDelta = bwRate * dt
		f.progressStep = progress * dt
		f.pend = pend
		f.pendD = pendD
		f.coreHz = float64(s.coreFreq) * dt
		f.uncHz = float64(s.uncoreFreq) * dt
		f.mperfD = float64(s.spec.BaseCoreFreq) * dt
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

// boundaryNext reports whether the next tick would hit the mid-tick
// phase-boundary pre-check — the one event that fires before a tick
// consumes any time.
func (m *Machine) boundaryNext() bool {
	return m.fastProgress > 0 && m.sockets[0].remaining/m.fastProgress < m.dt
}

// window advances the established machine by up to w whole ticks and
// returns the number of ticks consumed. A tick-level event (phase
// boundary, limiter transition) ends the window early. When roundEvery
// is positive the window pauses after every roundEvery-th tick strictly
// inside the window and calls onRound — the certified round-skip hook —
// with the machine bit-identical to the reference loop's state at that
// instant; an event tick suppresses the pause so the affected round runs
// in full from the main loop. onRound's error aborts the window.
func (m *Machine) window(w, roundEvery int, onRound func() error) (int, error) {
	n := 0
	for n < w {
		pause := w
		if roundEvery > 0 {
			if next := n + roundEvery - n%roundEvery; next < pause {
				pause = next
			}
		}
		k, event := m.chunk(pause - n)
		n += k
		if event {
			break
		}
		if n == pause && n < w {
			if m.boundaryNext() {
				// The round's last-possible successor tick is mixed; let
				// the main loop run the round for real before it.
				break
			}
			if err := onRound(); err != nil {
				return n, err
			}
		}
	}
	if n > 0 {
		m.fastTicksRun += int64(n)
		m.fastWindowsRun++
	}
	return n, nil
}

// fastTicks is the single-gear entry the tests and profiles address: one
// window with no round pauses.
func (m *Machine) fastTicks(w int) int {
	n, _ := m.window(w, 0, nil)
	return n
}

// chunk advances up to limit ticks, choosing the gear: straight-line
// when the limiters certify no transition and the phase boundary is
// provably out of reach, the joint per-tick loop otherwise. It returns
// the ticks consumed and whether a tick-level event ended the chunk.
func (m *Machine) chunk(limit int) (int, bool) {
	if c := m.straightTicks(limit); c > 0 {
		m.straightLine(c)
		return c, false
	}
	if limit > jointProbe {
		limit = jointProbe
	}
	return m.jointTicks(limit)
}

// straightTicks returns how many ticks may run in the straight-line gear
// (0 to decline): the power must be constant (no jitter), every limiter
// must certify that no frequency transition can occur at that power, and
// the phase boundary must be provably further than the chunk plus a
// safety pad.
func (m *Machine) straightTicks(limit int) int {
	if m.cfg.PowerJitterSD != 0 {
		return 0
	}
	c := limit
	if progress := m.fastProgress; progress > 0 {
		guard := progress*m.dt + 1e-9
		for i, s := range m.sockets {
			f := &m.fast[i]
			if f.progressStep <= 0 {
				continue
			}
			q := (s.remaining - guard) / f.progressStep
			if q < float64(c+straightPad) {
				b := int(q) - straightPad
				if b < c {
					c = b
				}
			}
		}
	}
	if c < minStraight {
		return 0
	}
	for i, s := range m.sockets {
		if !s.limiter.Steady(m.fast[i].avgPower, s.coreFreq, s.request) {
			return 0
		}
	}
	return c
}

// straightLine advances every socket by c ticks with the per-tick
// branches hoisted out. The per-accumulator addition chains are exactly
// the joint gear's — each accumulator is socket-local, so running
// sockets consecutively instead of interleaved leaves every chain's
// floating-point sequence unchanged — and the limiter averages are
// replayed afterwards through Advance, which is bit-identical to the
// certified sequence of no-op Steps.
func (m *Machine) straightLine(c int) {
	dt := m.dt
	for i, s := range m.sockets {
		f := &m.fast[i]
		flops, bytes := s.flops, s.bytes
		pkgE, dramE := s.pkgEnergy, s.dramEnergy
		rem := s.remaining
		busy := s.busySecs
		coreHzS, uncHzS := s.coreHzSecs, s.uncHzSecs
		ap, mp := s.aperf, s.mperf
		for k := 0; k < c; k++ {
			flops += f.flopDelta
			bytes += f.byteDelta
			// pendingEnergy is zero at every tick start, so the
			// accumulate-then-settle pair collapses to one add of the
			// constant per-tick energy (0 + pend == pend exactly).
			pkgE += f.pend
			dramE += f.pendD
			rem -= f.progressStep
			busy += dt
			coreHzS += f.coreHz
			uncHzS += f.uncHz
			ap += f.coreHz
			mp += f.mperfD
		}
		s.flops, s.bytes = flops, bytes
		s.pkgEnergy, s.dramEnergy = pkgE, dramE
		s.remaining = rem
		s.busySecs = busy
		s.coreHzSecs, s.uncHzSecs = coreHzS, uncHzS
		s.aperf, s.mperf = ap, mp
		s.limiter.Advance(f.avgPower, dt, c)
	}
	m.now += time.Duration(c) * m.cfg.Tick
}

// jointTicks is the joint gear: up to limit ticks with all sockets
// interleaved per tick, the boundary pre-check, the power jitter and the
// RAPL limiter evaluated every tick — the reference accumulation,
// verbatim. It returns the ticks consumed and whether an event ended the
// chunk.
func (m *Machine) jointTicks(limit int) (int, bool) {
	dt := m.dt
	progress := m.fastProgress
	jitterSD := m.cfg.PowerJitterSD
	n := 0
	for n < limit {
		// A partial step inside this tick means a phase boundary: the
		// exact loop owns mixed ticks.
		if progress > 0 && m.sockets[0].remaining/progress < dt {
			return n, true
		}
		boundary := false
		for i, s := range m.sockets {
			f := &m.fast[i]
			s.flops += f.flopDelta
			s.bytes += f.byteDelta
			s.pendingEnergy += f.pend
			s.pendingDram += f.pendD
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
		}
		n++
		if boundary && m.done() {
			finished := m.now + m.tickDur
			for _, s := range m.sockets {
				s.finished = finished
			}
		}
		// The settle accumulation, with the constant avgPower standing in
		// for the pending-energy division it equals, jittered as settle
		// jitters it.
		transition := false
		for i, s := range m.sockets {
			f := &m.fast[i]
			power := f.avgPower
			if jitterSD > 0 {
				j := units.Power(s.jitter.NormFloat64() * jitterSD)
				if power+j > 0 {
					power += j
					s.pendingEnergy = units.Energy(float64(power) * m.tickSecs)
				}
			}
			s.lastPower = power
			s.pkgEnergy += s.pendingEnergy
			s.dramEnergy += s.pendingDram
			s.pendingEnergy, s.pendingDram = 0, 0
			s.busySecs += dt
			s.coreHzSecs += f.coreHz
			s.uncHzSecs += f.uncHz
			s.aperf += f.coreHz
			s.mperf += f.mperfD
			if next := s.limiter.Step(power, dt, s.coreFreq, s.request); next != s.coreFreq {
				if next < s.coreFreq {
					m.clampTicks++
				}
				s.coreFreq = next
				s.cacheOK = false
				transition = true
			}
		}
		m.now += m.cfg.Tick
		if boundary || transition {
			return n, true
		}
	}
	return n, false
}

// FastTicks returns the number of physics ticks of the most recent run
// that were advanced by the event-horizon macro-step rather than the
// exact per-tick loop.
func (m *Machine) FastTicks() int64 { return m.fastTicksRun }

// FastWindows returns the number of macro-stepped windows of the most
// recent run.
func (m *Machine) FastWindows() int64 { return m.fastWindowsRun }

// SkippedRounds returns the number of governor control rounds of the
// most recent run that were skipped under the steadiness contract.
func (m *Machine) SkippedRounds() int64 { return m.skippedRoundsRun }
