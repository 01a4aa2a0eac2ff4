package control

import (
	"fmt"
	"time"

	"dufp/internal/papi"
	"dufp/internal/units"
)

// capLoop is DUFP's power-capping decision loop for one socket. Decreases
// program both RAPL constraints to the same value; increases step the cap
// back up and turn into a full reset once the long-term constraint returns
// to its default (§III).
type capLoop struct {
	act Actuators
	cfg Config

	pl1        units.Power
	defPL1     units.Power
	afterReset bool
	// latched parks the cap one step below the boundary after a
	// violation-driven step-raise, like the uncore loop's latch. Resets
	// do not latch: the reset-and-redescend sawtooth of highly
	// CPU-intensive phases is intended behaviour (§III).
	latched bool
}

func newCapLoop(act Actuators, cfg Config) *capLoop {
	def, _ := act.Zone.Defaults()
	return &capLoop{act: act, cfg: cfg, pl1: def, defPL1: def}
}

// Cap returns the current long-term cap target.
func (c *capLoop) Cap() units.Power { return c.pl1 }

// AtDefault reports whether the cap is at its factory value.
func (c *capLoop) AtDefault() bool { return c.pl1 >= c.defPL1 }

// Lower steps the cap down by one step, clamped to the floor, writing both
// constraints equal.
func (c *capLoop) Lower() error {
	next := (c.pl1 - c.cfg.CapStep).Clamp(c.cfg.CapFloor, c.defPL1)
	if next == c.pl1 {
		return nil
	}
	c.pl1 = next
	return c.act.Zone.SetLimits(next, next)
}

// Raise steps the cap up by one step; reaching the default value restores
// the factory constraints instead.
func (c *capLoop) Raise() error {
	c.latched = true
	next := c.pl1 + c.cfg.CapStep
	if next >= c.defPL1 {
		return c.Reset()
	}
	c.pl1 = next
	return c.act.Zone.SetLimits(next, next)
}

// Reset restores both constraints to their factory values.
func (c *capLoop) Reset() error {
	c.pl1 = c.defPL1
	c.afterReset = true
	return c.act.Zone.Reset()
}

// DUFP is the paper's controller: DUF's uncore loop plus dynamic power
// capping, with the two documented interaction rules.
type DUFP struct {
	act    Actuators
	cfg    Config
	tr     *tracker
	uncore *uncoreLoop
	cap    *capLoop
	guard  *guard

	// verifyUncore is interaction rule 2: after a joint reset, check on
	// the next tick that the uncore actually reached the maximum and
	// reset it again if not.
	verifyUncore bool

	log    *eventLog
	events *eventCounters
	attr   *phaseAttr
}

// NewDUFP builds a DUFP instance for one socket.
func NewDUFP(act Actuators, cfg Config) (*DUFP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := act.validate(true); err != nil {
		return nil, err
	}
	d := &DUFP{
		act:    act,
		cfg:    cfg,
		tr:     newTracker(cfg),
		uncore: newUncoreLoop(act, cfg),
		cap:    newCapLoop(act, cfg),
		log:    newEventLog(eventLogCapacity),
		events: countersFor("DUFP"),
		attr:   newPhaseAttr("DUFP", cfg),
	}
	if cfg.Guard.Enabled() {
		d.guard = newGuard(cfg.Guard, act.Monitor, "DUFP")
	}
	return d, nil
}

// Name implements Instance.
func (d *DUFP) Name() string { return "DUFP" }

// Start implements Instance: arm the monitor, pin the uncore to the
// maximum and restore the factory power limits.
func (d *DUFP) Start() error {
	d.act.Monitor.Start()
	if err := d.uncore.Reset(); err != nil {
		return err
	}
	return d.cap.Reset()
}

// Cap returns the current long-term power-cap target, for tests and
// traces.
func (d *DUFP) Cap() units.Power { return d.cap.Cap() }

// Uncore returns the current uncore target, for tests and traces.
func (d *DUFP) Uncore() units.Frequency { return d.uncore.target }

// Events returns the logged decision history, oldest first (bounded).
func (d *DUFP) Events() []Event { return d.log.events() }

// DropLog stops d keeping its decision log, which Events then returns
// as nil; control_events_total still counts every decision.
func (d *DUFP) DropLog() { d.log = nil }

func (d *DUFP) logEvent(now time.Duration, kind EventKind) {
	d.log.add(Event{Time: now, Kind: kind, Cap: d.cap.Cap(), Uncore: d.uncore.target})
	d.events.count(kind)
}

// acquire obtains this round's sample, through the guard when one is
// configured. proceed reports whether the round should decide on s; a
// false proceed with nil error means the guard consumed the round.
func (d *DUFP) acquire(now time.Duration) (s papi.Sample, proceed bool, err error) {
	if d.guard == nil {
		s, err := d.act.Monitor.Sample()
		if err != nil {
			return papi.Sample{}, false, fmt.Errorf("DUFP at %v: %w", now, err)
		}
		return s, true, nil
	}
	s, v, err := d.guard.sample()
	if err != nil {
		return papi.Sample{}, false, fmt.Errorf("DUFP at %v: %w", now, err)
	}
	switch v {
	case sampleOK:
		return s, true, nil
	case sampleRejected:
		d.logEvent(now, EventSampleRejected)
	case sampleDegrade:
		// Safe reset (the paper's §IV-D behaviour): uncore to the
		// maximum, factory power limits back, decisions frozen. A blind
		// controller must not keep a cap walked down for a phase it can
		// no longer see.
		if err := d.uncore.Reset(); err != nil {
			return papi.Sample{}, false, err
		}
		d.cap.latched = false
		if err := d.cap.Reset(); err != nil {
			return papi.Sample{}, false, err
		}
		d.logEvent(now, EventSensorDegraded)
	case sampleRecover:
		// Rebuild the phase references from the recovery sample and
		// re-verify the uncore next round (rule 2 after the safe
		// reset).
		d.tr = newTracker(d.cfg)
		d.tr.Observe(s)
		d.verifyUncore = true
		d.logEvent(now, EventSensorRecovered)
	}
	return papi.Sample{}, false, nil
}

// Tick implements Instance: one §III decision round.
func (d *DUFP) Tick(now time.Duration) error {
	s, proceed, err := d.acquire(now)
	if err != nil || !proceed {
		return err
	}
	d.attr.observe(s)

	// Interaction rule 2: after a joint reset the applied uncore
	// frequency may still be held down by the old cap; re-reset it.
	if d.verifyUncore {
		cur, err := d.act.Uncore.Current()
		if err != nil {
			if isTransient(err) {
				// Keep the verification pending for the next round.
				return nil
			}
			return err
		}
		d.verifyUncore = false
		if cur < d.act.Spec.MaxUncoreFreq {
			if err := d.uncore.Reset(); err != nil {
				return err
			}
			d.logEvent(now, EventRule2)
		}
	}

	// Phase change: reset both levers (§III, Fig 2). A new phase clears
	// the boundary latch — its tolerance is explored afresh.
	if d.tr.Observe(s) {
		if err := d.uncore.Reset(); err != nil {
			return err
		}
		d.cap.latched = false
		if err := d.cap.Reset(); err != nil {
			return err
		}
		d.verifyUncore = true
		d.logEvent(now, EventPhaseChange)
		return nil
	}

	// The tick after a reset: if the consumption is already below the
	// long-term constraint, pull the short-term constraint down to it.
	if d.cap.afterReset {
		d.cap.afterReset = false
		if pl1, _, err := d.act.Zone.Limits(); err == nil && s.PkgPower < pl1 {
			if err := d.act.Zone.SetLimits(pl1, pl1); err != nil {
				return err
			}
		}
	}

	// Enforcement lag: consumed power above the cap resets it (§IV-D).
	if !d.cap.AtDefault() && s.PkgPower > d.cap.Cap()+d.cfg.PowerMargin {
		if err := d.cap.Reset(); err != nil {
			return err
		}
		d.logEvent(now, EventPowerOverCap)
		_, err := d.uncore.Step(s, d.tr)
		return err
	}

	// Interaction rule 1: a fruitless uncore raise charges the cap
	// instead, even while FLOPS/s remain within the tolerance.
	rule1 := d.uncore.RaisedWithoutGain(s)

	uncDec, err := d.uncore.Step(s, d.tr)
	if err != nil {
		return err
	}
	switch uncDec {
	case lowerSetting:
		d.logEvent(now, EventUncoreLower)
	case raiseSetting:
		d.logEvent(now, EventUncoreRaise)
	}
	return d.capDecision(now, s, rule1)
}

// capDecision applies one power-capping decision (Fig 2, right half).
func (d *DUFP) capDecision(now time.Duration, s papi.Sample, rule1 bool) error {
	flopsDrop := droppedBy(float64(s.FlopRate), d.tr.FlopsRef())

	if rule1 && flopsDrop <= d.cfg.Slowdown {
		err := d.cap.Raise()
		d.logEvent(now, EventRule1)
		return err
	}

	oi := s.OperationalIntensity()
	if oi < d.cfg.HighMemOI {
		// Highly memory-intensive: keep decreasing regardless of
		// FLOPS/s, down to the floor.
		err := d.cap.Lower()
		d.logEvent(now, EventCapLower)
		return err
	}

	dec := classifyWith(flopsDrop, d.cfg.Slowdown, d.cfg.Epsilon, d.cfg.AblateRateBudget)
	if oi > d.cfg.HighCPUOI {
		// Highly CPU-intensive: violations reset rather than step, and
		// the tolerance applies to memory bandwidth as well.
		bwDrop := droppedBy(float64(s.Bandwidth), d.tr.BWRef())
		if dec == raiseSetting || classifyWith(bwDrop, d.cfg.Slowdown, d.cfg.Epsilon, d.cfg.AblateRateBudget) == raiseSetting {
			err := d.cap.Reset()
			d.logEvent(now, EventCapReset)
			return err
		}
	}

	switch dec {
	case lowerSetting:
		if !d.cfg.AblateLatch && d.cap.latched && flopsDrop >= resumeBelow(d.cfg.Slowdown, d.cfg.Epsilon) {
			return nil
		}
		err := d.cap.Lower()
		d.logEvent(now, EventCapLower)
		return err
	case raiseSetting:
		err := d.cap.Raise()
		d.logEvent(now, EventCapRaise)
		return err
	default:
		return nil
	}
}

// Config returns the controller's configuration.
func (d *DUFP) Config() Config { return d.cfg }

// GuardStats returns the sample guard's counters (zero when the guard
// is disabled).
func (d *DUFP) GuardStats() GuardStats {
	if d.guard == nil {
		return GuardStats{}
	}
	return d.guard.stats
}
