package model

import (
	"fmt"
	"math"
	"time"

	"dufp/internal/arch"
	"dufp/internal/units"
)

// PhaseShape describes the execution behaviour of one application phase in
// machine-independent terms. The workload package defines applications as
// sequences of shapes; Kinetics compiles a shape against an architecture
// into work volumes and rate functions.
type PhaseShape struct {
	// Name labels the phase for traces and diagnostics.
	Name string

	// FlopFrac is the achieved FLOP rate divided by the peak FLOP rate at
	// the default operating point (max core and uncore frequency). It
	// encodes instruction-mix efficiency: ≈0.7 for DGEMM, ≈0.01 for sparse
	// code.
	FlopFrac float64
	// MemFrac is the achieved average memory bandwidth divided by the peak
	// bandwidth at the default operating point.
	MemFrac float64
	// ActivityExtra is the phase's additive switching-activity term (see
	// model.Load.ActivityExtra), in [0, 0.5].
	ActivityExtra float64

	// ComputeShare is the fraction of serial (non-overlapped-equivalent)
	// time spent compute-bound at the default operating point; the rest is
	// memory-bound. It controls how sensitive the phase is to core
	// frequency versus bandwidth.
	ComputeShare float64
	// Overlap in [0,1] is how much the shorter of the compute and memory
	// components hides under the longer one (1 = perfect overlap).
	Overlap float64

	// UncoreLatSens in [0,1] makes the compute rate depend on uncore
	// frequency (LLC latency sensitivity): rate ∝ (1-s) + s·(u/u0).
	UncoreLatSens float64
	// BWUncoreKnee is the uncore frequency below which bandwidth degrades
	// linearly; above it the uncore is not the bandwidth bottleneck.
	BWUncoreKnee units.Frequency
	// BWCoreExp is the exponent of the mild bandwidth dependence on core
	// frequency above BWCoreKnee (memory-level parallelism loss).
	BWCoreExp float64
	// BWCoreKnee is the core frequency below which bandwidth collapses
	// linearly (not enough outstanding misses).
	BWCoreKnee units.Frequency

	// Duration is the phase's execution time at the default operating
	// point.
	Duration time.Duration
}

// Validate reports an error for physically meaningless shapes.
func (s PhaseShape) Validate() error {
	switch {
	case s.Duration <= 0:
		return fmt.Errorf("model: phase %q: duration must be positive", s.Name)
	case s.FlopFrac < 0 || s.FlopFrac > 1:
		return fmt.Errorf("model: phase %q: FlopFrac %v outside [0,1]", s.Name, s.FlopFrac)
	case s.MemFrac < 0 || s.MemFrac > 1:
		return fmt.Errorf("model: phase %q: MemFrac %v outside [0,1]", s.Name, s.MemFrac)
	case s.ActivityExtra < 0 || s.ActivityExtra > 0.5:
		return fmt.Errorf("model: phase %q: ActivityExtra %v outside [0,0.5]", s.Name, s.ActivityExtra)
	case s.FlopFrac == 0 && s.MemFrac == 0:
		return fmt.Errorf("model: phase %q: phase does no work", s.Name)
	case s.ComputeShare < 0 || s.ComputeShare > 1:
		return fmt.Errorf("model: phase %q: ComputeShare %v outside [0,1]", s.Name, s.ComputeShare)
	case s.Overlap < 0 || s.Overlap > 1:
		return fmt.Errorf("model: phase %q: Overlap %v outside [0,1]", s.Name, s.Overlap)
	case s.UncoreLatSens < 0 || s.UncoreLatSens > 1:
		return fmt.Errorf("model: phase %q: UncoreLatSens %v outside [0,1]", s.Name, s.UncoreLatSens)
	case s.BWCoreExp < 0:
		return fmt.Errorf("model: phase %q: BWCoreExp must be non-negative", s.Name)
	case !finite(float64(s.BWUncoreKnee)) || !finite(float64(s.BWCoreKnee)):
		return fmt.Errorf("model: phase %q: knee frequencies must be finite", s.Name)
	}
	return nil
}

func finite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// OperationalIntensity returns the phase's FLOPS/byte ratio on spec, the
// quantity DUF/DUFP compute from counters.
func (s PhaseShape) OperationalIntensity(spec arch.Spec) float64 {
	bw := s.MemFrac * float64(spec.PeakMemoryBandwidth)
	if bw == 0 {
		return 1e9 // effectively infinite: pure compute
	}
	return s.FlopFrac * float64(spec.PeakFlops(spec.MaxCoreFreq)) / bw
}

// Kinetics is a phase shape compiled against an architecture: total work
// volumes plus rate functions of the operating point.
type Kinetics struct {
	shape PhaseShape
	spec  arch.Spec

	// Work volumes for the whole phase.
	Flops float64 // total floating-point operations
	Bytes float64 // total bytes moved

	// Burst-rate denominators at the default operating point.
	compRate0 float64 // flops/s while compute-bound
	bwBurst0  float64 // bytes/s while memory-bound
	f0, u0    units.Frequency
}

// Rates is the instantaneous behaviour of a phase at an operating point.
type Rates struct {
	// Progress is the fraction of the phase completed per second.
	Progress float64
	// FlopRate and Bandwidth are the externally visible counter rates.
	FlopRate  units.FlopRate
	Bandwidth units.Bandwidth
	// Load feeds the power model.
	Load Load
}

// Compile derives work volumes from the shape at the architecture's default
// operating point (max core and uncore frequency).
func Compile(spec arch.Spec, shape PhaseShape) (Kinetics, error) {
	if err := shape.Validate(); err != nil {
		return Kinetics{}, err
	}
	f0, u0 := spec.MaxCoreFreq, spec.MaxUncoreFreq
	d := shape.Duration.Seconds()

	flopRate0 := shape.FlopFrac * float64(spec.PeakFlops(f0))
	bwAvg0 := shape.MemFrac * float64(spec.PeakMemoryBandwidth)

	k := Kinetics{
		shape: shape,
		spec:  spec,
		Flops: flopRate0 * d,
		Bytes: bwAvg0 * d,
		f0:    f0,
		u0:    u0,
	}

	// Split the phase's default duration into compute-bound and
	// memory-bound components honouring ComputeShare and Overlap, then
	// derive the burst rates that reproduce the default duration.
	s, ov := shape.ComputeShare, shape.Overlap
	hi, lo := s, 1-s
	if hi < lo {
		hi, lo = lo, hi
	}
	serial := hi + (1-ov)*lo // combined time per unit of s+(1-s)
	total := d / serial      // tc+tm on the serialised axis
	tc, tm := s*total, (1-s)*total

	if k.Flops > 0 {
		if tc <= 0 {
			// Degenerate: work exists but no time share; treat as
			// infinitely fast compute (never the bottleneck).
			k.compRate0 = 0
		} else {
			k.compRate0 = k.Flops / tc
		}
	}
	if k.Bytes > 0 {
		if tm <= 0 {
			k.bwBurst0 = 0
		} else {
			k.bwBurst0 = k.Bytes / tm
		}
	}
	return k, nil
}

// MustCompile is Compile that panics on invalid shapes; for package-level
// application tables whose shapes are compile-time constants.
func MustCompile(spec arch.Spec, shape PhaseShape) Kinetics {
	k, err := Compile(spec, shape)
	if err != nil {
		panic(err)
	}
	return k
}

// Shape returns the shape the kinetics were compiled from.
func (k *Kinetics) Shape() PhaseShape { return k.shape }

// ActivityExtra returns the shape's additive switching-activity term, the
// one shape field the simulator reads per operating point, without
// copying the shape.
func (k *Kinetics) ActivityExtra() float64 { return k.shape.ActivityExtra }

// bwScale returns the bandwidth derating at (f, u) relative to the default
// operating point.
func (k *Kinetics) bwScale(f, u units.Frequency) float64 {
	sh := &k.shape
	scale := 1.0

	// Uncore knee: linear collapse below the knee frequency.
	if knee := sh.BWUncoreKnee; knee > 0 && u < knee {
		scale *= float64(u) / float64(knee)
	}

	// Mild power-law dependence on core frequency, collapsing linearly
	// below the core knee.
	if sh.BWCoreExp > 0 || (sh.BWCoreKnee > 0 && f < sh.BWCoreKnee) {
		fRef := f
		if sh.BWCoreKnee > 0 && f < sh.BWCoreKnee {
			fRef = sh.BWCoreKnee
			scale *= float64(f) / float64(sh.BWCoreKnee)
		}
		if sh.BWCoreExp > 0 {
			scale *= pow(float64(fRef)/float64(k.f0), sh.BWCoreExp)
		}
	}
	return scale
}

// compScale returns the compute-rate derating at (f, u).
func (k *Kinetics) compScale(f, u units.Frequency) float64 {
	sh := &k.shape
	scale := float64(f) / float64(k.f0)
	if sh.UncoreLatSens > 0 {
		scale *= (1 - sh.UncoreLatSens) + sh.UncoreLatSens*float64(u)/float64(k.u0)
	}
	return scale
}

// At evaluates the phase's rates at core frequency f and uncore frequency u.
func (k *Kinetics) At(f, u units.Frequency) Rates {
	var tc, tm float64
	if k.compRate0 > 0 && k.Flops > 0 {
		tc = k.Flops / (k.compRate0 * k.compScale(f, u))
	}
	if k.bwBurst0 > 0 && k.Bytes > 0 {
		tm = k.Bytes / (k.bwBurst0 * k.bwScale(f, u))
	}

	hi, lo := tc, tm
	if hi < lo {
		hi, lo = lo, hi
	}
	dur := hi + (1-k.shape.Overlap)*lo
	if dur <= 0 {
		// No resolvable bottleneck: complete instantly at a nominal rate.
		dur = 1e-9
	}

	r := Rates{
		Progress:  1 / dur,
		FlopRate:  units.FlopRate(k.Flops / dur),
		Bandwidth: units.Bandwidth(k.Bytes / dur),
	}
	r.Load.ActivityExtra = k.shape.ActivityExtra
	peakF := float64(k.spec.PeakFlops(f))
	if peakF > 0 {
		r.Load.FlopUtil = float64(r.FlopRate) / peakF
	}
	if pb := float64(k.spec.PeakMemoryBandwidth); pb > 0 {
		r.Load.MemUtil = float64(r.Bandwidth) / pb
	}
	return r
}

// pow is a fast positive-base power; math.Pow dominates the tick loop
// otherwise, and exponents here are small and often 0, 0.25 or 0.5.
func pow(base, exp float64) float64 {
	switch exp {
	case 0:
		return 1
	case 1:
		return base
	}
	// exp is small and static per phase; use the generic path.
	return powSlow(base, exp)
}
