// Package workload defines the benchmark applications as sequences of phase
// shapes consumed by the simulator. The suite mirrors the paper's §IV-B:
// eight NAS Parallel Benchmarks (BT, CG, EP, FT, LU, MG, SP, UA), HPL and
// LAMMPS.
//
// Real binaries are unavailable in this environment (and irrelevant to the
// controllers, which only observe hardware counters), so each application is
// encoded by the *decision-relevant* structure the paper describes or
// implies: operational intensity per phase, compute/memory criticality,
// sensitivity of bandwidth to uncore and core frequency, phase alternation
// periods relative to the 200 ms sampling interval, and sub-interval power
// bursts. Durations are scaled to the tens of seconds to keep the full
// reproduction tractable; all results are reported as ratios, as in the
// paper.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"dufp/internal/model"
)

// Loop is a repeated group of phases.
type Loop struct {
	// Body is executed Count times in sequence.
	Body  []model.PhaseShape
	Count int
}

// App is one benchmark application.
type App struct {
	// Name is the short benchmark name (e.g. "CG").
	Name string
	// Class annotates the problem size ("D", "C", or a config string).
	Class string
	// Description summarises the behaviour being modelled.
	Description string
	// Loops is the phase program.
	Loops []Loop
}

// Jitter controls run-to-run variation applied by Unroll.
type Jitter struct {
	// Duration is the relative standard deviation of phase durations.
	Duration float64
	// Intensity is the relative standard deviation of FlopFrac/MemFrac.
	Intensity float64
}

// DefaultJitter mirrors the paper's observed <2 % run-to-run variation.
func DefaultJitter() Jitter { return Jitter{Duration: 0.004, Intensity: 0.002} }

// Unroll flattens the phase program into a concrete phase sequence for one
// run, applying multiplicative Gaussian jitter from rng. A nil rng unrolls
// without jitter.
func (a App) Unroll(rng *rand.Rand, j Jitter) []model.PhaseShape {
	var out []model.PhaseShape
	for _, l := range a.Loops {
		count := l.Count
		if count < 1 {
			count = 1
		}
		for i := 0; i < count; i++ {
			for _, ph := range l.Body {
				if rng != nil {
					ph.Duration = jitterDuration(ph.Duration, rng, j.Duration)
					ph.FlopFrac = jitterFrac(ph.FlopFrac, rng, j.Intensity)
					ph.MemFrac = jitterFrac(ph.MemFrac, rng, j.Intensity)
				}
				out = append(out, ph)
			}
		}
	}
	return out
}

func jitterDuration(d time.Duration, rng *rand.Rand, sd float64) time.Duration {
	if sd <= 0 {
		return d
	}
	f := 1 + rng.NormFloat64()*sd
	if f < 0.5 {
		f = 0.5
	}
	return time.Duration(float64(d) * f)
}

func jitterFrac(v float64, rng *rand.Rand, sd float64) float64 {
	if sd <= 0 || v == 0 {
		return v
	}
	f := 1 + rng.NormFloat64()*sd
	switch {
	case f < 0.5:
		f = 0.5
	case f > 1.5:
		f = 1.5
	}
	v *= f
	if v > 1 {
		v = 1
	}
	return v
}

// NominalDuration sums the phase durations without jitter.
func (a App) NominalDuration() time.Duration {
	var d time.Duration
	for _, l := range a.Loops {
		count := l.Count
		if count < 1 {
			count = 1
		}
		var body time.Duration
		for _, ph := range l.Body {
			body += ph.Duration
		}
		d += time.Duration(count) * body
	}
	return d
}

// MaxPhases bounds the number of phases an application unrolls to. The
// suite's programs unroll to 16–70 phases; without a bound, a loop count
// in a few bytes of JSON would have Unroll and Machine.Load allocate
// without limit.
const MaxPhases = 10_000

// Validate checks every phase shape in the program and that it unrolls
// to at most MaxPhases phases.
func (a App) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("workload: app has no name")
	}
	if len(a.Loops) == 0 {
		return fmt.Errorf("workload: app %s has no phases", a.Name)
	}
	phases := 0
	for i, l := range a.Loops {
		if len(l.Body) == 0 {
			return fmt.Errorf("workload: app %s loop %d is empty", a.Name, i)
		}
		count := max(l.Count, 1) // as Unroll counts it
		// Comparing with the room left keeps the sum from overflowing.
		if count > (MaxPhases-phases)/len(l.Body) {
			return fmt.Errorf("workload: app %s unrolls to more than %d phases", a.Name, MaxPhases)
		}
		phases += count * len(l.Body)
		for _, ph := range l.Body {
			if err := ph.Validate(); err != nil {
				return fmt.Errorf("workload: app %s: %w", a.Name, err)
			}
		}
	}
	return nil
}

// Suite returns the paper's ten applications in its presentation order.
func Suite() []App {
	return []App{BT(), CG(), EP(), FT(), LU(), MG(), SP(), UA(), HPL(), LAMMPS()}
}

// Names returns the suite's application names in order.
func Names() []string {
	apps := Suite()
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.Name
	}
	return names
}

// ByName returns the suite application with the given name.
func ByName(name string) (App, bool) {
	for _, a := range Suite() {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}
