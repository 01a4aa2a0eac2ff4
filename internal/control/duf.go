package control

import (
	"fmt"
	"time"

	"dufp/internal/papi"
	"dufp/internal/units"
)

// uncoreLoop is the DUF decision loop for one socket: it pins the uncore
// frequency, stepping it down while both FLOPS/s and memory bandwidth stay
// within the tolerated slowdown of the phase reference, stepping it up
// otherwise, and resetting it to the maximum on phase changes. Bandwidth is
// monitored for all phases (unlike the cap loop, which only monitors it for
// highly CPU-intensive phases).
type uncoreLoop struct {
	act Actuators
	cfg Config

	target units.Frequency
	// lastAction records the previous decision for DUFP's interaction
	// rule 1.
	lastAction decision
	// lastFlops is the previous sample's FLOPS/s, the baseline for "did
	// the uncore raise improve performance".
	lastFlops float64
	// latched is set once a violation forced a raise: the loop then parks
	// one step below the boundary instead of re-probing it every few
	// ticks, which would time-average above the tolerance because the
	// 100 MHz quantum is coarser than the measurement-error band.
	latched bool
}

func newUncoreLoop(act Actuators, cfg Config) *uncoreLoop {
	return &uncoreLoop{act: act, cfg: cfg, target: act.Spec.MaxUncoreFreq}
}

// Reset pins the uncore back to the maximum frequency.
func (u *uncoreLoop) Reset() error {
	u.target = u.act.Spec.MaxUncoreFreq
	u.lastAction = holdSetting
	u.latched = false
	return u.act.Uncore.Pin(u.target)
}

// Step applies one DUF decision for the sample against the tracker's phase
// references and reports the decision taken.
func (u *uncoreLoop) Step(s papi.Sample, tr *tracker) (decision, error) {
	flopsDrop := droppedBy(float64(s.FlopRate), tr.FlopsRef())
	bwDrop := droppedBy(float64(s.Bandwidth), tr.BWRef())

	dec := classifyWith(flopsDrop, u.cfg.Slowdown, u.cfg.Epsilon, u.cfg.AblateRateBudget)
	// Bandwidth may only veto decreases or force increases; it never
	// enables a decrease on its own.
	switch classifyWith(bwDrop, u.cfg.Slowdown, u.cfg.Epsilon, u.cfg.AblateRateBudget) {
	case raiseSetting:
		dec = raiseSetting
	case holdSetting:
		if dec == lowerSetting {
			dec = holdSetting
		}
	}
	// Once parked below the boundary, only clear headroom (a drop well
	// inside the tolerance) resumes lowering.
	if resume := resumeBelow(u.cfg.Slowdown, u.cfg.Epsilon); !u.cfg.AblateLatch && u.latched && dec == lowerSetting &&
		(flopsDrop >= resume || bwDrop >= resume) {
		dec = holdSetting
	}
	if dec == raiseSetting {
		u.latched = true
	}
	defer func() {
		u.lastAction = dec
		u.lastFlops = float64(s.FlopRate)
	}()

	spec := u.act.Spec
	switch dec {
	case lowerSetting:
		next := spec.ClampUncoreFreq(u.target - u.cfg.UncoreStep)
		if next == u.target {
			return holdSetting, nil
		}
		u.target = next
		return dec, u.act.Uncore.Pin(next)
	case raiseSetting:
		next := spec.ClampUncoreFreq(u.target + u.cfg.UncoreStep)
		if next == u.target {
			return holdSetting, nil
		}
		u.target = next
		return dec, u.act.Uncore.Pin(next)
	default:
		return holdSetting, nil
	}
}

// RaisedWithoutGain reports whether the previous decision raised the uncore
// yet FLOPS/s did not improve — the trigger of DUFP's interaction rule 1.
func (u *uncoreLoop) RaisedWithoutGain(s papi.Sample) bool {
	return u.lastAction == raiseSetting && u.lastFlops > 0 &&
		float64(s.FlopRate) <= u.lastFlops*(1+u.cfg.Epsilon/2)
}

// DUF is the uncore-only controller of the prior paper, used here both as
// the baseline and as the uncore half of DUFP.
type DUF struct {
	act   Actuators
	cfg   Config
	tr    *tracker
	loop  *uncoreLoop
	guard *guard

	log    *eventLog
	events *eventCounters
	attr   *phaseAttr
}

// NewDUF builds a DUF instance for one socket.
func NewDUF(act Actuators, cfg Config) (*DUF, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := act.validate(false); err != nil {
		return nil, err
	}
	d := &DUF{
		act:    act,
		cfg:    cfg,
		tr:     newTracker(cfg),
		loop:   newUncoreLoop(act, cfg),
		log:    newEventLog(eventLogCapacity),
		events: countersFor("DUF"),
		attr:   newPhaseAttr("DUF", cfg),
	}
	if cfg.Guard.Enabled() {
		d.guard = newGuard(cfg.Guard, act.Monitor, "DUF")
	}
	return d, nil
}

// Name implements Instance.
func (d *DUF) Name() string { return "DUF" }

// Start implements Instance: it arms the monitor and pins the uncore to
// the maximum.
func (d *DUF) Start() error {
	d.act.Monitor.Start()
	return d.loop.Reset()
}

// acquire obtains this round's sample, through the guard when one is
// configured. proceed reports whether the round should decide on s; a
// false proceed with nil error means the guard consumed the round.
func (d *DUF) acquire(now time.Duration) (s papi.Sample, proceed bool, err error) {
	if d.guard == nil {
		s, err := d.act.Monitor.Sample()
		if err != nil {
			return papi.Sample{}, false, fmt.Errorf("DUF at %v: %w", now, err)
		}
		return s, true, nil
	}
	s, v, err := d.guard.sample()
	if err != nil {
		return papi.Sample{}, false, fmt.Errorf("DUF at %v: %w", now, err)
	}
	switch v {
	case sampleOK:
		return s, true, nil
	case sampleRejected:
		d.logEvent(now, EventSampleRejected)
	case sampleDegrade:
		// Safe reset (§IV-D analogue): uncore back to the maximum,
		// decisions frozen until the sensor answers again.
		if err := d.loop.Reset(); err != nil {
			return papi.Sample{}, false, err
		}
		d.logEvent(now, EventSensorDegraded)
	case sampleRecover:
		// The outage invalidated the phase references; rebuild them
		// from the recovery sample and resume next round.
		d.tr = newTracker(d.cfg)
		d.tr.Observe(s)
		d.logEvent(now, EventSensorRecovered)
	}
	return papi.Sample{}, false, nil
}

// Tick implements Instance.
func (d *DUF) Tick(now time.Duration) error {
	s, proceed, err := d.acquire(now)
	if err != nil || !proceed {
		return err
	}
	d.attr.observe(s)
	if d.tr.Observe(s) {
		err := d.loop.Reset()
		d.logEvent(now, EventPhaseChange)
		return err
	}
	dec, err := d.loop.Step(s, d.tr)
	switch dec {
	case lowerSetting:
		d.logEvent(now, EventUncoreLower)
	case raiseSetting:
		d.logEvent(now, EventUncoreRaise)
	}
	return err
}

func (d *DUF) logEvent(now time.Duration, kind EventKind) {
	d.log.add(Event{Time: now, Kind: kind, Uncore: d.loop.target})
	d.events.count(kind)
}

// Events returns the logged decision history, oldest first (bounded).
func (d *DUF) Events() []Event { return d.log.events() }

// DropLog stops d keeping its decision log, which Events then returns
// as nil; control_events_total still counts every decision.
func (d *DUF) DropLog() { d.log = nil }

// Uncore returns the currently targeted uncore frequency, for tests and
// traces.
func (d *DUF) Uncore() units.Frequency { return d.loop.target }

// Config returns the controller's configuration.
func (d *DUF) Config() Config { return d.cfg }

// GuardStats returns the sample guard's counters (zero when the guard
// is disabled).
func (d *DUF) GuardStats() GuardStats {
	if d.guard == nil {
		return GuardStats{}
	}
	return d.guard.stats
}
