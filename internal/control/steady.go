// The steadiness contract: a governor that can prove its next decision
// round is a no-op lets the simulator skip the round entirely — the run
// advances multiple control periods per macro-window without invoking
// Tick. The proof obligation is strict bit-identity with the reference
// run: a certified round must take no actuation, log no event, and leave
// the controller in exactly the state the full Tick would have (which
// SkipRound replays: it samples the monitor for real, so rate-dependent
// state like the guard's last-good sample stays bit-exact).
//
// Certification reasons about a *frozen* observable band: the simulator
// certifies once per macro-window with the window's constant rates, and
// any mid-window change (phase boundary, RAPL transition) breaks the
// window before the affected round, which then runs in full. Because the
// measured sample can differ from the idealized constants by
// floating-point accumulation and RAPL quantization error, every
// threshold comparison here carries a guard band (steadyBand) and
// declines to certify near a boundary; declining is always sound.
package control

import (
	"fmt"
	"time"

	"dufp/internal/msr"
	"dufp/internal/papi"
	"dufp/internal/units"
)

// Observables is the frozen machine state a skipped round would measure:
// the sample a monitor would produce over one control period at the
// current constant rates, plus the delivered core and uncore frequencies.
type Observables struct {
	// Sample is the measurement a skipped round would take. Its Interval
	// is the control period; the rates are the window's constants.
	Sample papi.Sample
	// CoreFreq is the delivered core frequency, constant over the window.
	CoreFreq units.Frequency
	// UncoreFreq is the delivered uncore frequency, constant over the
	// window.
	UncoreFreq units.Frequency
}

// RoundSkipper is the optional steadiness contract. Governors that do not
// implement it are never skipped — today's behavior.
type RoundSkipper interface {
	// SteadyNoOp reports whether, given frozen observables, every
	// following decision round is provably a no-op: no actuation, no
	// logged event, and no state change beyond what SkipRound replays.
	// False makes no claim; it only declines to certify.
	SteadyNoOp(o Observables) bool
	// SkipRound replays the certified no-op round at simulation time now:
	// it consumes the measurement interval (sampling the monitor for
	// real) and applies the bookkeeping a full Tick would, leaving the
	// controller bit-identical to the reference run.
	SkipRound(now time.Duration) error
}

// steadyMargin is the relative guard band for threshold comparisons. It
// upper-bounds the discrepancy between the window's idealized constant
// rates and the actually measured sample — floating-point accumulation
// error (~1e-8 relative) and RAPL energy quantization (~3e-4 W per
// 200 ms round) — while staying far below the decision thresholds it
// guards (ε/2 ≥ 5e-3 on the drop scale, PowerMargin = 3 W on the power
// scale).
const steadyMargin = 1e-4

// steadyBand is the absolute guard band around a value of magnitude v.
func steadyBand(v float64) float64 {
	if v < 0 {
		v = -v
	}
	return steadyMargin * (1 + v)
}

// clearAbove reports v determinately above threshold: true for every
// value within the guard band of v.
func clearAbove(v, threshold float64) bool { return v-steadyBand(v) > threshold }

// clearBelow reports v determinately below threshold.
func clearBelow(v, threshold float64) bool { return v+steadyBand(v) < threshold }

// sideOf resolves which side of threshold v falls on, declining inside
// the guard band. above follows the >= convention of the latch-resume
// comparisons.
func sideOf(v, threshold float64) (above, determinate bool) {
	b := steadyBand(v)
	switch {
	case v-b >= threshold:
		return true, true
	case v+b < threshold:
		return false, true
	default:
		return false, false
	}
}

// classifySteady classifies a performance drop only when the decision is
// determinate across the drop's whole guard band. classify is monotone
// in the drop, so checking the band's endpoints suffices.
func classifySteady(drop, slowdown, eps float64, rawBudget bool) (decision, bool) {
	b := steadyBand(drop)
	lo := classifyWith(drop-b, slowdown, eps, rawBudget)
	hi := classifyWith(drop+b, slowdown, eps, rawBudget)
	if lo != hi {
		return holdSetting, false
	}
	return lo, true
}

// errSkipNotIdle flags a certification bug: SkipRound found state the
// certificate promised could not occur. Failing the run loudly beats
// silently diverging from the reference.
var errSkipNotIdle = fmt.Errorf("control: skipped round was not a no-op")

// steadyIdle reports whether the guard would pass a round measuring s
// straight through: no backoff, no degraded mode, no pending outlier,
// and the deviation filter determinately accepting s.
func (g *guard) steadyIdle(s papi.Sample) bool {
	if g.skip > 0 || g.degraded || g.pendingOutlier || g.failStreak != 0 || g.backoff != 1 {
		return false
	}
	if f := g.cfg.OutlierFactor; f > 1 && g.haveLast {
		a, b := float64(s.FlopRate), float64(g.last.FlopRate)
		if b > 0 && !(clearBelow(a, b*f) && clearAbove(a, b/f)) {
			return false
		}
	}
	return true
}

// frozenUnder reports whether Observe(s) provably returns false and
// mutates nothing: references frozen (the sample window is full and not
// provisional) and s determinately inside the current phase.
func (t *tracker) frozenUnder(s papi.Sample) bool {
	if !t.started || t.provisional || t.samples < t.cfg.WindowSamples {
		return false
	}
	oi := s.OperationalIntensity()
	if t.isMem {
		if !clearBelow(oi, t.cfg.MemOIBoundary) {
			return false
		}
	} else if !clearAbove(oi, t.cfg.MemOIBoundary) {
		return false
	}
	return clearBelow(float64(s.FlopRate), t.cfg.PhaseFlopsFactor*t.refF)
}

// steadyNoOp certifies one uncore Step as a silent hold: the decision is
// determinate, resolves to hold (or a lower clamped at the band floor,
// which Step reports as a hold and the caller does not log), and the
// previous action was not a raise (so DUFP's rule 1 cannot trigger). On
// success the decision Step's defer would have recorded is cached in
// steadyDec for SkipRound to replay.
func (u *uncoreLoop) steadyNoOp(s papi.Sample, tr *tracker) bool {
	if u.lastAction == raiseSetting {
		return false
	}
	flopsDrop := droppedBy(float64(s.FlopRate), tr.FlopsRef())
	bwDrop := droppedBy(float64(s.Bandwidth), tr.BWRef())
	dec, ok := classifySteady(flopsDrop, u.cfg.Slowdown, u.cfg.Epsilon, u.cfg.AblateRateBudget)
	if !ok {
		return false
	}
	bwDec, ok := classifySteady(bwDrop, u.cfg.Slowdown, u.cfg.Epsilon, u.cfg.AblateRateBudget)
	if !ok {
		return false
	}
	switch bwDec {
	case raiseSetting:
		return false
	case holdSetting:
		if dec == lowerSetting {
			dec = holdSetting
		}
	}
	if !u.cfg.AblateLatch && u.latched && dec == lowerSetting {
		resume := resumeBelow(u.cfg.Slowdown, u.cfg.Epsilon)
		fAbove, fDet := sideOf(flopsDrop, resume)
		bAbove, bDet := sideOf(bwDrop, resume)
		switch {
		case (fDet && fAbove) || (bDet && bAbove):
			dec = holdSetting
		case fDet && bDet: // both determinately below: lowering resumes
		default:
			return false
		}
	}
	switch dec {
	case raiseSetting:
		return false
	case lowerSetting:
		if u.act.Spec.ClampUncoreFreq(u.target-u.cfg.UncoreStep) != u.target {
			return false // would actually move (and log)
		}
	}
	u.steadyDec = dec
	return true
}

// skipRound replays the state a certified Step leaves behind: the defer
// that records the last action and the sample's FLOPS/s.
func (u *uncoreLoop) skipRound(s papi.Sample) {
	u.lastAction = u.steadyDec
	u.lastFlops = float64(s.FlopRate)
}

// SteadyNoOp implements RoundSkipper: a DUF round is a provable no-op
// when the sample path is deterministic and idle, the phase references
// are frozen, and the uncore loop certifies a silent hold.
func (d *DUF) SteadyNoOp(o Observables) bool {
	if !d.act.Monitor.Deterministic() {
		return false
	}
	if d.guard != nil && !d.guard.steadyIdle(o.Sample) {
		return false
	}
	if !d.tr.frozenUnder(o.Sample) {
		return false
	}
	return d.loop.steadyNoOp(o.Sample, d.tr)
}

// SkipRound implements RoundSkipper.
func (d *DUF) SkipRound(now time.Duration) error {
	s, proceed, err := d.acquire(now)
	if err != nil {
		return err
	}
	if !proceed {
		return fmt.Errorf("DUF at %v: %w", now, errSkipNotIdle)
	}
	d.attr.observe(s)
	d.loop.skipRound(s)
	return nil
}

// SteadyNoOp implements RoundSkipper: a DUFP round is a provable no-op
// when DUF's conditions hold and additionally no pending rule-2
// verification or post-reset pull-down exists, the consumed power is
// determinately under the cap's reset threshold, the phase is
// determinately outside the always-lower high-memory region, and the cap
// decision resolves to a silent hold (including the latch-suppressed
// lower, which returns before logging).
func (d *DUFP) SteadyNoOp(o Observables) bool {
	if !d.act.Monitor.Deterministic() {
		return false
	}
	if d.guard != nil && !d.guard.steadyIdle(o.Sample) {
		return false
	}
	if d.verifyUncore || d.cap.afterReset {
		return false
	}
	if !d.tr.frozenUnder(o.Sample) {
		return false
	}
	s := o.Sample
	if !d.cap.AtDefault() && !clearBelow(float64(s.PkgPower), float64(d.cap.Cap()+d.cfg.PowerMargin)) {
		return false
	}
	// The uncore certificate also pins lastAction != raise, so rule 1
	// cannot charge the cap.
	if !d.uncore.steadyNoOp(s, d.tr) {
		return false
	}
	oi := s.OperationalIntensity()
	// In the high-memory region the cap branch logs EventCapLower even
	// when clamped at the floor, so it is never silent.
	if !clearAbove(oi, d.cfg.HighMemOI) {
		return false
	}
	flopsDrop := droppedBy(float64(s.FlopRate), d.tr.FlopsRef())
	dec, ok := classifySteady(flopsDrop, d.cfg.Slowdown, d.cfg.Epsilon, d.cfg.AblateRateBudget)
	if !ok || dec == raiseSetting {
		return false
	}
	if !clearBelow(oi, d.cfg.HighCPUOI) {
		if !clearAbove(oi, d.cfg.HighCPUOI) {
			return false
		}
		bwDrop := droppedBy(float64(s.Bandwidth), d.tr.BWRef())
		bwDec, ok := classifySteady(bwDrop, d.cfg.Slowdown, d.cfg.Epsilon, d.cfg.AblateRateBudget)
		if !ok || bwDec == raiseSetting {
			return false
		}
	}
	if dec == lowerSetting {
		// Only the latch-suppressed lower returns before logging; an
		// executed Lower logs EventCapLower even when clamped at the
		// floor.
		if d.cfg.AblateLatch || !d.cap.latched {
			return false
		}
		above, det := sideOf(flopsDrop, resumeBelow(d.cfg.Slowdown, d.cfg.Epsilon))
		if !det || !above {
			return false
		}
	}
	return true
}

// SkipRound implements RoundSkipper.
func (d *DUFP) SkipRound(now time.Duration) error {
	s, proceed, err := d.acquire(now)
	if err != nil {
		return err
	}
	if !proceed {
		return fmt.Errorf("DUFP at %v: %w", now, errSkipNotIdle)
	}
	d.attr.observe(s)
	d.uncore.skipRound(s)
	return nil
}

// SteadyNoOp implements RoundSkipper: a DNPC round is a provable no-op
// when the frequency-linear degradation estimate determinately resolves
// to a hold (or a lower clamped at the floor — DNPC logs no events, so a
// clamped lower is silent).
func (d *DNPC) SteadyNoOp(o Observables) bool {
	if !d.act.Monitor.Deterministic() || !d.havePerf {
		return false
	}
	// The APERF/MPERF ratio a skipped round would measure: the counters
	// advance at the delivered and base clocks, so the ratio reduces to
	// the frozen delivered frequency over base (the uint64 truncation of
	// the counters perturbs it by ~1e-9, far inside the guard band).
	base := float64(d.act.Spec.BaseCoreFreq)
	if base <= 0 || o.CoreFreq <= 0 {
		return false
	}
	fRel := (float64(o.CoreFreq) / base) / d.maxRatio
	degradation := 1 - fRel
	dec, ok := classifySteady(degradation, d.cfg.Slowdown, d.cfg.Epsilon, false)
	if !ok {
		return false
	}
	if d.latched && dec == lowerSetting {
		above, det := sideOf(degradation, resumeBelow(d.cfg.Slowdown, d.cfg.Epsilon))
		if !det {
			return false
		}
		if above {
			dec = holdSetting
		}
	}
	switch dec {
	case raiseSetting:
		return false
	case lowerSetting:
		return (d.cap-d.cfg.CapStep).Clamp(d.cfg.CapFloor, d.act.Spec.DefaultPL1) == d.cap
	}
	return true
}

// SkipRound implements RoundSkipper: consume the measurement interval
// and re-latch the APERF/MPERF counters, exactly the state a certified
// hold round leaves behind.
func (d *DNPC) SkipRound(now time.Duration) error {
	if _, err := d.act.Monitor.Sample(); err != nil {
		return fmt.Errorf("DNPC at %v: %w", now, err)
	}
	aperf, err := d.dev.Read(d.cpu, msr.IA32APerf)
	if err != nil {
		return err
	}
	mperf, err := d.dev.Read(d.cpu, msr.IA32MPerf)
	if err != nil {
		return err
	}
	d.lastAperf, d.lastMperf = aperf, mperf
	return nil
}

// SteadyNoOp implements RoundSkipper: DUFPF adds the frequency-request
// management to DUFP's round, so on top of the DUFP certificate the
// request logic must determinately take its do-nothing branch. SkipRound
// is inherited from DUFP: a certified DUFPF round touches no extra
// state (the PERF_STATUS read is side-effect-free and settle is zero).
func (d *DUFPF) SteadyNoOp(o Observables) bool {
	if !d.DUFP.SteadyNoOp(o) {
		return false
	}
	// The certified DUFP round leaves the cap unchanged, so the
	// cap-raise headroom branch cannot trigger.
	if d.Cap() >= d.act.Spec.DefaultPL1 {
		// Uncapped: the round re-requests the maximum, a no-op only if
		// already there.
		return d.reqTarget == d.act.Spec.MaxCoreFreq
	}
	if d.settle > 0 {
		return false // the round would consume a settle count
	}
	// Delivered frequency as the round would read it back: the register
	// stores the ratio, so the frozen core frequency round-trips through
	// the P-state grid.
	delivered := msr.RatioToFrequency(msr.FrequencyToRatio(o.CoreFreq))
	step := d.act.Spec.CoreFreqStep
	if delivered < d.reqTarget-step {
		return false // would chase the throttled frequency down
	}
	if delivered >= d.reqTarget && d.reqTarget < d.act.Spec.MaxCoreFreq {
		return false // would probe headroom
	}
	return true
}

// SteadyNoOp implements RoundSkipper: a static cap takes no runtime
// decisions, so every round is a no-op.
func (s *StaticCap) SteadyNoOp(Observables) bool { return true }

// SkipRound implements RoundSkipper: StaticCap's Tick samples nothing.
func (s *StaticCap) SkipRound(time.Duration) error { return nil }

// SteadyNoOp implements RoundSkipper.
func (NoOp) SteadyNoOp(Observables) bool { return true }

// SkipRound implements RoundSkipper.
func (NoOp) SkipRound(time.Duration) error { return nil }

// SteadyNoOp implements RoundSkipper: only a lifted cap is steady — time
// advances across skipped rounds regardless of frozen observables, so a
// pending deadline cannot be certified over an open horizon.
func (t *TimedCap) SteadyNoOp(Observables) bool { return t.lifted }

// SkipRound implements RoundSkipper.
func (t *TimedCap) SkipRound(time.Duration) error { return nil }

// SteadyNoOp implements RoundSkipper: a chain is steady when every
// member implements the contract and certifies.
func (c Chain) SteadyNoOp(o Observables) bool {
	for _, in := range c {
		rs, ok := in.(RoundSkipper)
		if !ok || !rs.SteadyNoOp(o) {
			return false
		}
	}
	return true
}

// SkipRound implements RoundSkipper, forwarding to each member in Tick
// order.
func (c Chain) SkipRound(now time.Duration) error {
	for _, in := range c {
		rs, ok := in.(RoundSkipper)
		if !ok {
			return fmt.Errorf("control: chain member %s at %v: %w", in.Name(), now, errSkipNotIdle)
		}
		if err := rs.SkipRound(now); err != nil {
			return err
		}
	}
	return nil
}
