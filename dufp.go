// Package dufp is a reproduction of "Combining Uncore Frequency and Dynamic
// Power Capping to Improve Power Savings" (Guermouche, IPDPSW 2022). It
// provides DUFP — a runtime controller that dynamically lowers the RAPL
// package power cap and the uncore frequency as long as the application's
// FLOPS/s stay within a user-defined tolerated slowdown — together with the
// DUF baseline, a simulated Skylake-SP node to run them on, the paper's
// ten-application workload suite and the full experiment harness.
//
// Quick start:
//
//	ctx := context.Background()
//	session := dufp.NewSession()
//	app, _ := dufp.AppNamed("CG")
//	res, _ := session.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10))})
//	summary, _ := session.SummarizeCtx(ctx, app, dufp.DUFP(dufp.DefaultControlConfig(0.10)), 10)
//	baseline, _ := session.SummarizeCtx(ctx, app, dufp.Baseline(), 10)
//	fmt.Println(res.Run.Time, dufp.CompareRuns(summary, baseline))
//
// Runs are scheduled on a shared, memoising executor: identical
// (app, governor, session, run index) requests — e.g. the baseline above
// and the same baseline needed by an experiment table — compute once.
// Session.Run takes two options for sideband output: WithRecord returns
// the run's whole record, WithTraceSink streams its samples.
// WithFaultPlan injects deterministic sensor/actuator faults
// and ControlConfig.Guard hardens the controllers against them (see
// DESIGN.md §10).
package dufp

import (
	"io"
	"time"

	"dufp/internal/arch"
	"dufp/internal/control"
	"dufp/internal/metrics"
	"dufp/internal/model"
	"dufp/internal/sim"
	"dufp/internal/units"
	"dufp/internal/workload"
)

// Re-exported quantity types.
type (
	// Frequency is a clock frequency in hertz.
	Frequency = units.Frequency
	// Power is a power draw in watts.
	Power = units.Power
	// Energy is an energy amount in joules.
	Energy = units.Energy
)

// Common unit constants.
const (
	Gigahertz = units.Gigahertz
	Megahertz = units.Megahertz
	Watt      = units.Watt
	Joule     = units.Joule
)

// Re-exported architecture and workload types.
type (
	// Topology describes the simulated node.
	Topology = arch.Topology
	// Spec describes one processor package.
	Spec = arch.Spec
	// App is a benchmark application.
	App = workload.App
	// Loop is a repeated phase group inside an App.
	Loop = workload.Loop
	// PhaseShape describes one application phase.
	PhaseShape = model.PhaseShape
	// PowerParams is the power-model calibration.
	PowerParams = model.PowerParams
)

// Re-exported controller and measurement types.
type (
	// ControlConfig parameterises DUF/DUFP.
	ControlConfig = control.Config
	// Run is one completed execution's measurements.
	Run = metrics.Run
	// Summary aggregates repeated runs per the paper's protocol.
	Summary = metrics.Summary
	// Comparison expresses a summary as ratios over a baseline.
	Comparison = metrics.Comparison
	// TracePoint is one time-series sample.
	TracePoint = sim.TracePoint
)

// Yeti2 returns the topology of the paper's evaluation node: four Intel
// Xeon Gold 6130 packages.
func Yeti2() Topology { return arch.Yeti2() }

// XeonGold6130 returns the per-socket specification (Table I).
func XeonGold6130() Spec { return arch.XeonGold6130() }

// Suite returns the paper's ten applications.
func Suite() []App { return workload.Suite() }

// AppByName returns a suite application by name (e.g. "CG").
func AppByName(name string) (App, bool) { return workload.ByName(name) }

// DefaultControlConfig returns the paper's controller parameters for a
// tolerated slowdown (e.g. 0.10 for 10 %).
func DefaultControlConfig(slowdown float64) ControlConfig {
	return control.DefaultConfig(slowdown)
}

// CompareRuns expresses a summary as ratios over the baseline.
func CompareRuns(s, baseline Summary) Comparison { return metrics.Compare(s, baseline) }

// Re-exported workload builders (synthetic applications beyond the paper's
// suite).
type (
	// SteadyConfig parameterises a single-phase synthetic application.
	SteadyConfig = workload.SteadyConfig
	// AlternatorConfig parameterises a compute/memory alternator.
	AlternatorConfig = workload.AlternatorConfig
	// BurstConfig parameterises a bursty application.
	BurstConfig = workload.BurstConfig
)

// SteadyApp builds a single-phase synthetic application.
func SteadyApp(cfg SteadyConfig) (App, error) { return workload.Steady(cfg) }

// AlternatorApp builds a compute/memory alternating application.
func AlternatorApp(cfg AlternatorConfig) (App, error) { return workload.Alternator(cfg) }

// BurstApp builds a steady application with periodic power bursts.
func BurstApp(cfg BurstConfig) (App, error) { return workload.Burst(cfg) }

// RampApp builds a memory-to-compute intensity staircase.
func RampApp(name string, steps int, stepDur time.Duration) (App, error) {
	return workload.Ramp(name, steps, stepDur)
}

// WriteAppJSON serialises an application definition.
func WriteAppJSON(w io.Writer, a App) error { return workload.WriteJSON(w, a) }

// ReadAppJSON parses and validates an application definition.
func ReadAppJSON(r io.Reader) (App, error) { return workload.ReadJSON(r) }

// ControlEvent is one logged controller decision.
type ControlEvent = control.Event

// eventLogger is satisfied by controllers that record a decision log
// (DUF and DUFP do).
type eventLogger interface {
	Events() []control.Event
}

// EventsOf returns the decision log of a controller instance built by a
// governor func, when that controller records one (DUF and DUFP do); nil
// otherwise. Chains yield the first member with a log.
func EventsOf(inst control.Instance) []ControlEvent {
	switch g := inst.(type) {
	case eventLogger:
		return g.Events()
	case control.Chain:
		for _, member := range g {
			if evs := EventsOf(member); evs != nil {
				return evs
			}
		}
	}
	return nil
}

// logDropper is satisfied by controllers that can stop keeping their
// decision log (DUF and DUFP can).
type logDropper interface {
	DropLog()
}

// dropLog stops inst, or every member of a chain, keeping a decision
// log. Session runs call it when nothing will read the log.
func dropLog(inst control.Instance) {
	switch g := inst.(type) {
	case logDropper:
		g.DropLog()
	case control.Chain:
		for _, member := range g {
			dropLog(member)
		}
	}
}
