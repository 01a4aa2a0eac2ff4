package dufp

import (
	"fmt"
	"sync/atomic"
	"time"

	"dufp/internal/control"
)

// Governor couples a controller constructor with a canonical identity.
// The identity content-addresses the governor (kind plus configuration
// fingerprint), which is what lets the run executor coalesce and memoise
// runs requested by independent callers: two Governors built from equal
// configurations denote the same computation.
//
// The zero Governor is the baseline (default machine configuration).
type Governor struct {
	id string
	mk GovernorFunc
	// spec is the declarative form recorded by the canonical
	// constructors, which is what makes a Governor serializable on the
	// wire (see wire.go). Anonymous governors have none.
	spec *govSpec
}

// ID returns the governor's canonical identity.
func (g Governor) ID() string {
	if g.id == "" {
		return "default"
	}
	return g.id
}

// Baseline leaves the machine in its default configuration (the paper's
// baseline).
func Baseline() Governor { return Governor{} }

// cfgID fingerprints a flat configuration struct. %+v is deterministic
// for the scalar-only configs used here.
func cfgID(kind string, cfg any) string {
	return kind + "/" + hash64(fmt.Sprintf("%+v", cfg))
}

// DUF attaches the uncore-only DUF controller.
func DUF(cfg ControlConfig) Governor {
	return Governor{
		id:   cfgID("DUF", cfg),
		mk:   func(act control.Actuators) (control.Instance, error) { return control.NewDUF(act, cfg) },
		spec: &govSpec{kind: GovKindDUF, cfg: &cfg},
	}
}

// DUFP attaches the paper's DUFP controller.
func DUFP(cfg ControlConfig) Governor {
	return Governor{
		id:   cfgID("DUFP", cfg),
		mk:   func(act control.Actuators) (control.Instance, error) { return control.NewDUFP(act, cfg) },
		spec: &govSpec{kind: GovKindDUFP, cfg: &cfg},
	}
}

// DNPC attaches the frequency-model dynamic-capping baseline from the
// paper's related work (§VI).
func DNPC(cfg ControlConfig) Governor {
	return Governor{
		id:   cfgID("DNPC", cfg),
		mk:   func(act control.Actuators) (control.Instance, error) { return control.NewDNPC(act, cfg) },
		spec: &govSpec{kind: GovKindDNPC, cfg: &cfg},
	}
}

// DUFPF attaches the future-work variant (§VII) that additionally manages
// the core-frequency request under an active cap.
func DUFPF(cfg ControlConfig) Governor {
	return Governor{
		id:   cfgID("DUFP-F", cfg),
		mk:   func(act control.Actuators) (control.Instance, error) { return control.NewDUFPF(act, cfg) },
		spec: &govSpec{kind: GovKindDUFPF, cfg: &cfg},
	}
}

// StaticCap applies a fixed power cap for the whole run.
func StaticCap(pl1, pl2 Power) Governor {
	return Governor{
		id: cfgID("StaticCap", [2]Power{pl1, pl2}),
		mk: func(act control.Actuators) (control.Instance, error) {
			return control.NewStaticCap(act, pl1, pl2)
		},
		spec: &govSpec{kind: GovKindStaticCap, pl1: pl1, pl2: pl2},
	}
}

// StaticCapDUF applies a fixed power cap and runs DUF under it, the
// configuration of the paper's Fig 1a capped bars.
func StaticCapDUF(cfg ControlConfig, pl1, pl2 Power) Governor {
	return Governor{
		id: cfgID("StaticCap+DUF", struct {
			Cfg      ControlConfig
			PL1, PL2 Power
		}{cfg, pl1, pl2}),
		mk: func(act control.Actuators) (control.Instance, error) {
			static, err := control.NewStaticCap(control.Actuators{Spec: act.Spec, Zone: act.Zone}, pl1, pl2)
			if err != nil {
				return nil, err
			}
			duf, err := control.NewDUF(act, cfg)
			if err != nil {
				return nil, err
			}
			return control.Chain{static, duf}, nil
		},
		spec: &govSpec{kind: GovKindStaticCapDUF, cfg: &cfg, pl1: pl1, pl2: pl2},
	}
}

// TimedCap applies a fixed cap until the deadline, then restores the
// defaults (Fig 1b/1c partial-phase capping). DUF runs throughout.
func TimedCap(cfg ControlConfig, pl1, pl2 Power, until time.Duration) Governor {
	return Governor{
		id: cfgID("TimedCap+DUF", struct {
			Cfg      ControlConfig
			PL1, PL2 Power
			Until    time.Duration
		}{cfg, pl1, pl2, until}),
		mk: func(act control.Actuators) (control.Instance, error) {
			timed, err := control.NewTimedCap(control.Actuators{Spec: act.Spec, Zone: act.Zone}, pl1, pl2, until)
			if err != nil {
				return nil, err
			}
			duf, err := control.NewDUF(act, cfg)
			if err != nil {
				return nil, err
			}
			return control.Chain{timed, duf}, nil
		},
		spec: &govSpec{kind: GovKindTimedCap, cfg: &cfg, pl1: pl1, pl2: pl2, until: until},
	}
}

var anonGovSeq atomic.Uint64

// GovernorOf wraps a bare constructor in a Governor carrying a
// process-unique identity: nothing identifies two funcs as equal, so
// wrapped governors never share cached runs with other wraps. The
// canonical constructors above are preferred wherever memoisation
// matters.
func GovernorOf(mk GovernorFunc) Governor {
	return Governor{id: fmt.Sprintf("anon-%d", anonGovSeq.Add(1)), mk: mk}
}
