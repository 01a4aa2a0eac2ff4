package sim

import (
	"testing"
	"time"

	"dufp/internal/model"
	"dufp/internal/msr"
	"dufp/internal/obs/span"
	"dufp/internal/units"
)

// steadyCapGov is the benchmark's governor: it programs a fixed package
// power limit every round — the realistic steady-state shape of a DUFP
// campaign point.
type steadyCapGov struct {
	m   *Machine
	cpu int
	raw uint64
}

func newSteadyCapGov(m *Machine, socket int, pl1, pl2 units.Power) *steadyCapGov {
	raw := msr.EncodePkgPowerLimit(msr.DefaultUnits(), msr.PkgPowerLimit{
		PL1: msr.PowerLimit{Limit: pl1, Window: 1, Enabled: true},
		PL2: msr.PowerLimit{Limit: pl2, Window: 0.01, Enabled: true},
	})
	return &steadyCapGov{m: m, cpu: m.Socket(socket).CPU0(), raw: raw}
}

func (g *steadyCapGov) Tick(time.Duration) error {
	return g.m.MSR().Write(g.cpu, msr.MSRPkgPowerLimit, g.raw)
}

func benchMachine(b *testing.B, jitterSD float64, d time.Duration) *Machine {
	b.Helper()
	cfg := DefaultConfig()
	cfg.PowerJitterSD = jitterSD
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Load([]model.PhaseShape{steadyShape(d)}); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkStepPhysics measures one reference tick at a steady operating
// point — the unit of work the macro-step elides.
func BenchmarkStepPhysics(b *testing.B) {
	m := benchMachine(b, 0, time.Hour)
	m.cfg.MaxDuration = 100 * time.Hour
	dt := m.dt
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.stepPhysics(dt)
		m.now += m.cfg.Tick
	}
}

// BenchmarkRunUngoverned measures a full ungoverned steady-state run per
// simulated second, fast path versus pinned reference loop. The ratio of
// the two sub-benchmarks is the tentpole's headline speedup.
func BenchmarkRunUngoverned(b *testing.B) {
	for _, sub := range []struct {
		name  string
		exact bool
	}{{"fast", false}, {"exact", true}} {
		b.Run(sub.name, func(b *testing.B) {
			const simSecs = 2.0
			m := benchMachine(b, 0, time.Duration(simSecs*float64(time.Second)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := m.Load([]model.PhaseShape{steadyShape(time.Duration(simSecs * float64(time.Second)))}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := m.Run(RunOpts{ExactLoop: sub.exact}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/simSecs, "ns/simsec")
		})
	}
}

// BenchmarkRunGoverned measures a governed run (200 ms control period,
// cap-stepping governor) per simulated second: the realistic experiment
// shape, where windows are bounded by decision rounds.
func BenchmarkRunGoverned(b *testing.B) {
	const simSecs = 2.0
	m := benchMachine(b, 0, time.Duration(simSecs*float64(time.Second)))
	govs := make([]Governor, m.Sockets())
	for i := range govs {
		govs[i] = newSteadyCapGov(m, i, 110*units.Watt, 130*units.Watt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := m.Load([]model.PhaseShape{steadyShape(time.Duration(simSecs * float64(time.Second)))}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := m.Run(RunOpts{ControlPeriod: 200 * time.Millisecond, Governors: govs}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/simSecs, "ns/simsec")
}

// BenchmarkRunGovernedSpans is BenchmarkRunGoverned with the span
// flight recorder attached — the delta between the two is the
// recorder's cost (budget: < 3% ns/simsec). The fresh trace per
// iteration is built off the clock.
func BenchmarkRunGovernedSpans(b *testing.B) {
	const simSecs = 2.0
	m := benchMachine(b, 0, time.Duration(simSecs*float64(time.Second)))
	govs := make([]Governor, m.Sockets())
	for i := range govs {
		govs[i] = newSteadyCapGov(m, i, 110*units.Watt, 130*units.Watt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := m.Load([]model.PhaseShape{steadyShape(time.Duration(simSecs * float64(time.Second)))}); err != nil {
			b.Fatal(err)
		}
		opts := RunOpts{ControlPeriod: 200 * time.Millisecond, Governors: govs, Spans: span.New("bench")}
		b.StartTimer()
		if _, err := m.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/simSecs, "ns/simsec")
}
