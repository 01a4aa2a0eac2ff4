// Package papi provides the measurement layer DUF and DUFP rely on, in the
// shape of the PAPI component interface the paper uses (§IV-C): event sets
// over hardware counters (floating-point operations, memory traffic) plus
// RAPL energy readings, sampled periodically into rates with realistic
// measurement noise.
package papi

import (
	"fmt"
	"math/rand"
	"time"

	"dufp/internal/rapl"
	"dufp/internal/units"
)

// Event identifies a hardware counter, mirroring PAPI preset names.
type Event int

// Supported events.
const (
	// FPOps counts retired floating-point operations (PAPI_FP_OPS).
	FPOps Event = iota
	// MemBytes counts bytes moved to and from DRAM (uncore IMC counters).
	MemBytes
	numEvents
)

// String returns the PAPI-style event name.
func (e Event) String() string {
	switch e {
	case FPOps:
		return "PAPI_FP_OPS"
	case MemBytes:
		return "rapl:::MEM_BYTES"
	default:
		return fmt.Sprintf("papi.Event(%d)", int(e))
	}
}

// Source supplies cumulative counter values for one package. The simulator
// implements it.
type Source interface {
	// Counter returns the cumulative value of ev.
	Counter(ev Event) float64
	// Now returns the current simulation time.
	Now() time.Duration
}

// EventSet is a PAPI-style event set: a group of counters started and read
// together.
type EventSet struct {
	src     Source
	events  []Event
	started bool
	base    []float64
}

// NewEventSet creates an event set over the given events.
func NewEventSet(src Source, events ...Event) (*EventSet, error) {
	if src == nil {
		return nil, fmt.Errorf("papi: nil counter source")
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("papi: empty event set")
	}
	for _, e := range events {
		if e < 0 || e >= numEvents {
			return nil, fmt.Errorf("papi: unknown event %d", int(e))
		}
	}
	return &EventSet{src: src, events: append([]Event(nil), events...)}, nil
}

// Start latches the current counter values as the zero point.
func (s *EventSet) Start() {
	s.base = make([]float64, len(s.events))
	for i, e := range s.events {
		s.base[i] = s.src.Counter(e)
	}
	s.started = true
}

// Read returns the counter deltas since Start (or since the last Reset).
func (s *EventSet) Read() ([]float64, error) {
	if !s.started {
		return nil, fmt.Errorf("papi: event set not started")
	}
	out := make([]float64, len(s.events))
	for i, e := range s.events {
		out[i] = s.src.Counter(e) - s.base[i]
	}
	return out, nil
}

// Reset re-latches the zero point, like PAPI_reset.
func (s *EventSet) Reset() { s.Start() }

// Relatch re-latches the zero point like Reset but reuses the existing
// base slice, keeping periodic sampling allocation-free. Values are
// identical to Reset's.
func (s *EventSet) Relatch() {
	if s.base == nil {
		s.Start()
		return
	}
	for i, e := range s.events {
		s.base[i] = s.src.Counter(e)
	}
	s.started = true
}

// Sample is one monitoring-interval measurement, the input to a DUF/DUFP
// decision.
type Sample struct {
	// Time is the simulation time at the end of the interval.
	Time time.Duration
	// Interval is the measured interval length.
	Interval time.Duration
	// FlopRate is the measured FLOPS/s over the interval.
	FlopRate units.FlopRate
	// Bandwidth is the measured memory bandwidth over the interval.
	Bandwidth units.Bandwidth
	// PkgPower and DramPower are the RAPL-derived average powers.
	PkgPower, DramPower units.Power
}

// OperationalIntensity returns FLOPS per byte, the phase classifier input.
// It returns +Inf-like large values for zero bandwidth.
func (s Sample) OperationalIntensity() float64 {
	if s.Bandwidth <= 0 {
		return 1e12
	}
	return float64(s.FlopRate) / float64(s.Bandwidth)
}

// Monitor produces periodic Samples for one package: counter deltas from an
// event set, energy deltas from the RAPL meters, plus multiplicative
// Gaussian measurement noise.
type Monitor struct {
	set   *EventSet
	pkg   *rapl.EnergyMeter
	dram  *rapl.EnergyMeter
	rng   *rand.Rand
	noise float64

	last    time.Duration
	started bool
}

// NewMonitor builds a monitor. noiseSD is the relative standard deviation
// applied independently to each measured quantity; 0 disables noise. rng
// may be nil when noiseSD is 0.
func NewMonitor(src Source, pkg, dram *rapl.EnergyMeter, rng *rand.Rand, noiseSD float64) (*Monitor, error) {
	if noiseSD > 0 && rng == nil {
		return nil, fmt.Errorf("papi: noise requested without an rng")
	}
	set, err := NewEventSet(src, FPOps, MemBytes)
	if err != nil {
		return nil, err
	}
	return &Monitor{set: set, pkg: pkg, dram: dram, rng: rng, noise: noiseSD}, nil
}

// Start begins the measurement epoch.
func (m *Monitor) Start() {
	m.set.Start()
	if m.pkg != nil {
		m.pkg.Sample() // latch
	}
	if m.dram != nil {
		m.dram.Sample()
	}
	m.last = m.set.src.Now()
	m.started = true
}

// sampleFailer is the optional hook a Source implements to fail whole
// samples; the fault-injection layer uses it to model dropped PAPI
// reads. A non-nil SampleErr fails Sample before any interval state is
// consumed, so the lost round's deltas merge into the next one.
type sampleFailer interface {
	SampleErr() error
}

// Sample closes the current interval and opens the next, returning the
// interval's rates. On error the interval stays open: counters and the
// epoch clock are only consumed by a successful sample, so a failed
// round folds into the next measurement instead of vanishing.
func (m *Monitor) Sample() (Sample, error) {
	if !m.started {
		return Sample{}, fmt.Errorf("papi: monitor not started")
	}
	now := m.set.src.Now()
	dt := now - m.last
	if dt <= 0 {
		return Sample{}, fmt.Errorf("papi: empty measurement interval at %v", now)
	}
	if f, ok := m.set.src.(sampleFailer); ok {
		if err := f.SampleErr(); err != nil {
			return Sample{}, err
		}
	}
	// Read the energy meters before consuming the counter interval, so
	// an early failure is fully retryable. (A failure between the two
	// meter reads still part-latches the package meter — the realistic
	// cost of non-atomic multi-register sampling.)
	var ePkg, eDram units.Energy
	if m.pkg != nil {
		e, err := m.pkg.Sample()
		if err != nil {
			return Sample{}, err
		}
		ePkg = e
	}
	if m.dram != nil {
		e, err := m.dram.Sample()
		if err != nil {
			return Sample{}, err
		}
		eDram = e
	}
	deltas, err := m.set.Read()
	if err != nil {
		return Sample{}, err
	}
	m.set.Relatch()

	sec := dt.Seconds()
	s := Sample{
		Time:      now,
		Interval:  dt,
		FlopRate:  units.FlopRate(m.noisy(deltas[0] / sec)),
		Bandwidth: units.Bandwidth(m.noisy(deltas[1] / sec)),
	}
	if m.pkg != nil {
		s.PkgPower = units.Power(m.noisy(float64(ePkg) / sec))
	}
	if m.dram != nil {
		s.DramPower = units.Power(m.noisy(float64(eDram) / sec))
	}
	m.last = now
	return s, nil
}

func (m *Monitor) noisy(v float64) float64 {
	if m.noise <= 0 || v == 0 {
		return v
	}
	f := 1 + m.rng.NormFloat64()*m.noise
	if f < 0 {
		f = 0
	}
	return v * f
}
